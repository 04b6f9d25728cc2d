#!/usr/bin/env bash
# End-to-end checks of the command-line interface: exit codes, empty stdout on
# every error, and byte-identical output where two inputs or settings must not
# matter.
#
#   bash tests/cli_smoke.sh          # every check; float mode needs numpy
#   bash tests/cli_smoke.sh exact    # the exact-mode checks only, no numpy needed
#
# PYTHON names the interpreter (default: python). The files are written to a
# temporary directory that is removed on exit.
set -euo pipefail

part=${1:-all}
case $part in all | exact) ;; *) echo "usage: $0 [all|exact]" >&2; exit 2 ;; esac
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fm() { PYTHONPATH="$root/src" "${PYTHON:-python}" -m forestmatrix.cli "$@"; }

# expect CODE ARG...: the command exits with CODE and prints nothing on stdout
expect() {
  local want=$1 status=0
  shift
  fm "$@" > expect.out || status=$?
  if [ "$status" -ne "$want" ] || [ -s expect.out ]; then
    echo "FAIL: '$*' exited $status (want $want) or wrote to stdout" >&2
    exit 1
  fi
}

# field KEY ARG...: the string value of "KEY" in the command's json output
field() {
  local key=$1
  shift
  fm "$@" | sed -n "s/^  \"$key\": \"\(.*\)\",\{0,1\}\$/\1/p"
}

printf 'graph directed 3\n1 2 1\n2 3 1/2\n1 3 2\n3 1 -1\n' > small-directed.graph
printf 'graph undirected 3\n1 2 1\n2 3 1/2\n1 3 2\n' > small-undirected.graph
printf 'graph undirected 4\n1 2 1\n2 3 1/2\n3 4 2\n1 3 1\n' > small.graph
printf 'graph directed 3\n1 2 1\n2 3 -1/2\n3 1 2\n1 2 1/3\n' > small-directed-parallel.graph
printf 'graph undirected 2\n1 2 1\n' > edge.graph

echo "every exact command runs on an undirected and a directed file"
for file in small.graph small-directed-parallel.graph; do
  for command in laplacian forest-matrix det "cofactor --from 1 --to 2" accessibility \
      charpoly "cofactor-poly --from 1 --to 2" "cofactor-poly --from 1 --to 2 --signed" \
      enumerate verify; do
    fm $command "$file" > /dev/null
  done
done

echo "enumerate filters run, and tree kinds reject unused flags"
fm enumerate small-directed.graph --from 1 --to 2 > /dev/null
fm enumerate small-directed.graph --roots 1 > /dev/null
fm enumerate small-undirected.graph --kind trees > /dev/null
expect 2 enumerate small-undirected.graph --kind trees --to 2

echo "enumeration totals equal the matrix side: det W for forests, cofactor (2, 2) of L for trees"
for check in "small.graph 49 4" "small-directed-parallel.graph 29/6 -1 --from 2"; do
  read -r file forests trees from <<< "$check"
  test "$(field total enumerate "$file")" = "$forests"
  test "$(field detW det "$file")" = "$forests"
  test "$(field total enumerate "$file" --kind trees $from)" = "$trees"
  test "$(field cofactor cofactor "$file" --lambda 0 --from 2 --to 2)" = "$trees"
done

echo "det (built from the arc list) and forest-matrix (built from W's entries) agree on det W"
for file in small.graph small-directed-parallel.graph; do
  for lam in 1 0 1/3 -2; do
    det=$(field detW det "$file" --lambda="$lam")
    test -n "$det"
    test "$det" = "$(field detW forest-matrix "$file" --lambda="$lam")"
  done
done

echo "out-of-grammar tokens exit 1 and out-of-grammar flags exit 2"
printf 'graph undirected 2\n1 2 1_000\n' > underscore-weight.graph
printf 'graph undirected 10\n1_0 2 1\n' > underscore-label.graph
expect 1 laplacian underscore-weight.graph
expect 1 laplacian underscore-label.graph
for argv in "det edge.graph --lambda 1_0" "cofactor edge.graph --from ١ --to 2" \
    "cofactor edge.graph --from 1 --to 1_0" "enumerate edge.graph --roots 1,2_0" \
    "verify edge.graph --max-enum 1_6"; do
  expect 2 $argv
done

echo "a graph file that is not UTF-8 exits 1 with one error line"
printf 'graph undirected 2\n1 2 \377\n' > latin1.graph
expect 1 det latin1.graph 2> latin1.err
grep -q '^error: cannot read input: ' latin1.err
test "$(wc -l < latin1.err)" -eq 1

echo "an empty graph given to verify exits 2"
printf 'graph directed 0\n' > empty.graph
expect 2 verify empty.graph

echo "lines end at LF only: a form feed inside a comment is not a line break"
printf 'graph undirected 3\n1 2 1\n# note\f2 3 5\n' > form-feed.graph
printf 'graph undirected 3\n1 2 1\n' > one-edge.graph
fm laplacian form-feed.graph > form-feed.out
fm laplacian one-edge.graph > one-edge.out
cmp form-feed.out one-edge.out

echo "a decimal exponent beyond 4300 is out of grammar: exit 1 in a file, exit 2 in a flag"
printf 'graph undirected 2\n1 2 1e4301\n' > huge-exponent.graph
expect 1 det huge-exponent.graph
expect 2 det edge.graph --lambda 1e5000

echo "a 4301-digit exact result prints the same under any digit limit"
printf 'graph undirected 2\n1 2 1e4300\n' > long.graph
fm det long.graph > long.out
PYTHONINTMAXSTRDIGITS=640 fm det long.graph > long-640.out
cmp long.out long-640.out
grep -q "\"detW\": \"2$(printf '0%.0s' $(seq 4299))1\"" long.out

echo "signed weights with zero diagonal pivots: W = [[0, 2, -1], [2, 0, -1], [-1, -1, 3]]"
printf 'graph undirected 3\n1 2 -2\n2 3 1\n1 3 1\n' > zero-pivot.graph
fm det zero-pivot.graph > zero-pivot.out
grep -q '"detW": "-8"' zero-pivot.out
for check in "2 3 -2" "3 3 -4" "1 2 -5"; do
  read -r from to want <<< "$check"
  fm cofactor zero-pivot.graph --from "$from" --to "$to" > zero-pivot.out
  grep -q "\"cofactor\": \"$want\"" zero-pivot.out
done

echo "accessibility with a zero diagonal pivot: Q = adj W / (-8), taken with a row swap"
fm accessibility zero-pivot.graph --output tsv > zero-pivot.out
printf '1/8\t5/8\t1/4\n5/8\t1/8\t1/4\n1/4\t1/4\t1/2\n' | cmp - zero-pivot.out

echo "signed cofactor polynomials of a path, whose shifts x = 1, 2 of xI - L have zero pivots"
# xI - L = [[x-1, 1, 0], [1, x-2, 1], [0, 1, x-1]]: cofactor (1, 1) is
# (x-2)(x-1) - 1 = x^2 - 3x + 1, cofactor (1, 3) is 1
printf 'graph undirected 3\n1 2 1\n2 3 1\n' > path.graph
fm cofactor-poly path.graph --from 1 --to 1 --signed --output tsv > path.out
printf '1\t-3\t1\n' | cmp - path.out
fm cofactor-poly path.graph --from 1 --to 3 --signed --output tsv > path.out
printf '1\t0\t0\n' | cmp - path.out

echo "verify passes on signed weights whose submatrices of L and shifts of xI - L have zero pivots"
for file in zero-pivot.graph path.graph small-directed-parallel.graph; do
  fm verify "$file" > verify.out
  grep -q '"all_pass": true' verify.out
done

echo "verify passes where merging changes the forest table's denominator: 1/2 + 1/2 gives 1"
printf 'graph undirected 3\n1 2 1/2\n1 2 1/2\n2 3 1/3\n' > halves-undirected.graph
printf 'graph directed 3\n1 2 1/2\n1 2 1/2\n2 3 1/3\n' > halves-directed.graph
for file in halves-undirected.graph halves-directed.graph; do
  fm verify "$file" > verify.out
  grep -q '"all_pass": true' verify.out
done

echo "verify on a singular W of each kind skips accessibility-matrix and passes the other 11 checks"
printf 'graph undirected 2\n1 2 -1/2\n' > singular-undirected.graph
printf 'graph directed 3\n1 2 -1\n2 3 1\n' > singular-directed.graph
for file in singular-undirected.graph singular-directed.graph; do
  test "$(field detW det "$file")" = 0
  fm verify "$file" --output tsv > verify.out
  grep -qx $'accessibility-matrix\tskip' verify.out
  test "$(wc -l < verify.out)" -eq 12
  test "$(grep -c $'\tpass$' verify.out)" -eq 11
done

echo "charpoly of a digraph whose vertex 1 has in-degree 0, a zero row of L"
# xI + L is lower triangular: x (x + 1) (x + 5/2) = x^3 + 7/2 x^2 + 5/2 x
printf 'graph directed 3\n1 2 1\n1 3 2\n2 3 1/2\n' > source.graph
fm charpoly source.graph --output tsv > source.out
printf '0\t5/2\t7/2\t1\n' | cmp - source.out

echo "exact accessibility of a singular W exits 3: lambda = 0, and the roots -2 and -1/2 of det W"
for argv in "small.graph --lambda 0" "small-directed.graph --lambda=-2" "small-directed.graph --lambda=-1/2"; do
  expect 3 accessibility $argv 2> singular.err
  grep -q '^error: W = lambda\*I + L is singular at lambda = ' singular.err
done

echo "det imports neither enumeration module: oracle and verify load on first use"
PYTHONPATH="$root/src" "${PYTHON:-python}" -X importtime -m forestmatrix.cli det small.graph \
  > /dev/null 2> importtime.err
grep -q ' forestmatrix\.forest$' importtime.err
if grep -Eq ' forestmatrix\.(oracle|verify)$' importtime.err; then
  echo "FAIL: det imported an enumeration module" >&2
  exit 1
fi

echo "det imports neither dataclasses nor inspect beyond what interpreter start-up loads"
PYTHONPATH="$root/src" "${PYTHON:-python}" -X importtime -c pass 2> startup.err
for module in dataclasses inspect; do
  if grep -q " $module\$" importtime.err && ! grep -q " $module\$" startup.err; then
    echo "FAIL: det imported $module" >&2
    exit 1
  fi
done

echo "an undirected cofactor is the same from i to j as from j to i"
for file in small.graph zero-pivot.graph; do
  fm cofactor "$file" --from 1 --to 3 | grep '"cofactor"' > forward.out
  fm cofactor "$file" --from 3 --to 1 | grep '"cofactor"' > backward.out
  cmp forward.out backward.out
done

if [ "$part" = all ]; then
  echo "every float command runs on an undirected and a directed file, in json and tsv"
  for file in small.graph small-directed-parallel.graph; do
    for command in laplacian forest-matrix det "cofactor --from 1 --to 2" accessibility charpoly; do
      for output in json tsv; do
        fm $command "$file" --mode float --output $output > /dev/null
      done
    done
  done

  echo "exact-only commands refuse float mode with exit 2"
  for command in verify enumerate "cofactor-poly --from 1 --to 2"; do
    expect 2 $command small.graph --mode float
  done

  echo "float inputs beyond binary64 exit 6, and singular float accessibility exits 3"
  printf 'graph undirected 2\n1 2 1e400\n' > huge.graph
  printf 'graph undirected 3\n1 2 -1/3\n2 3 -1/3\n1 3 -1/3\n' > singular-triangle.graph
  expect 6 det huge.graph --mode float
  expect 3 accessibility singular-triangle.graph --mode float

  echo "float tsv prints each entry as Python's repr of the float"
  fm accessibility small-directed.graph --mode float --output tsv > float-q.out
  PYTHONPATH="$root/src" "${PYTHON:-python}" -c 'import sys; from forestmatrix import floatops, parse_graph; q = floatops.accessibility(parse_graph(open(sys.argv[1]).read())).matrix; print("\n".join("\t".join(repr(float(x)) for x in row) for row in q))' small-directed.graph \
    | cmp - float-q.out
fi

echo "cli smoke checks ($part): ok"
