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

echo "a 5001-digit exact result prints the same under any digit limit"
printf 'graph undirected 2\n1 2 1e5000\n' > long.graph
fm det long.graph > long.out
PYTHONINTMAXSTRDIGITS=640 fm det long.graph > long-640.out
cmp long.out long-640.out
grep -q "\"detW\": \"2$(printf '0%.0s' $(seq 4999))1\"" long.out

if [ "$part" = all ]; then
  echo "float inputs beyond binary64 exit 6, and singular float accessibility exits 3"
  printf 'graph undirected 2\n1 2 1e400\n' > huge.graph
  printf 'graph undirected 3\n1 2 -1/3\n2 3 -1/3\n1 3 -1/3\n' > singular-triangle.graph
  expect 6 det huge.graph --mode float
  expect 3 accessibility singular-triangle.graph --mode float
fi

echo "cli smoke checks ($part): ok"
