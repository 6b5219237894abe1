#!/usr/bin/env bash
# Compare the jetgeo command line's output between two source trees.
#
#   .github/cli-bytes.sh BASE_DIR
#
# BASE_DIR is another checkout of the repository, for instance the commit a
# change starts from.  Each command below runs twice, once with
# BASE_DIR/src and once with this checkout's src on PYTHONPATH.  For each
# command the script prints `same` when stdout, stderr and the exit code
# agree, and a unified diff of whichever differ when they do not.  It exits
# 1 if any command differs and 0 if none does.
#
# The commands are README's three examples and 12 more: `check` on the
# family at p = 0..3 and at a general point, and on an S^2, an H^2 and a
# conformal spec file; `curvature --k 6` on S^2 and on H^2 at x = -0.1;
# `alpha` at p = 4; and `curvature --k 3` on the family at p = 2.
set -uf  # -f: the commands below are split into words, never globbed
if [ $# -ne 1 ] || [ ! -d "$1/src/jetgeo" ]; then
  echo "usage: $0 BASE_DIR (a checkout with src/jetgeo)" >&2
  exit 2
fi
base=$(cd "$1" && pwd)/src
head=$(cd "$(dirname "$0")/.." && pwd)/src
python=${PYTHON:-python3}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/s2.json" <<'JSON'
{
  "dim": 2,
  "coords": ["theta", "phi"],
  "signature": [0, 2],
  "components": [
    {"i": 0, "j": 0, "expr": "1.0"},
    {"i": 1, "j": 1, "expr": "sin(theta)^2"}
  ]
}
JSON
cat > "$tmp/h2.json" <<'JSON'
{
  "dim": 2,
  "coords": ["x", "y"],
  "signature": [0, 2],
  "components": [
    {"i": 0, "j": 0, "expr": "1.0"},
    {"i": 1, "j": 1, "expr": "exp(2*x)"}
  ]
}
JSON
cat > "$tmp/conformal.json" <<'JSON'
{
  "dim": 2,
  "coords": ["x", "y"],
  "signature": [0, 2],
  "components": [
    {"i": 0, "j": 0, "expr": "exp(2*(0.3*x^2 + 0.1*x*y + 0.2*y))"},
    {"i": 1, "j": 1, "expr": "exp(2*(0.3*x^2 + 0.1*x*y + 0.2*y))"}
  ]
}
JSON

family="f=exp(y)+exp(2*y)"
commands=(
  "curvature --family p=0,f=exp(y) --point 0,0,0,0,0,0 --k 0"
  "alpha --family p=0,$family --grid y=-0.5:0.5:5"
  "check --family p=0,f=exp(y) --seed 42"
  "check --family p=0,$family --seed 42"
  "check --family p=1,$family --seed 42"
  "check --family p=2,$family --seed 42"
  "check --family p=3,$family --seed 42"
  "check --family p=3,$family --seed 42 --point=0.1,0.2,0.3,0.1,0.2,0.3,0.1,0.2,0.3,0.1,0.2,0.3"
  "check --spec $tmp/s2.json --point=0.8,0.3"
  "check --spec $tmp/h2.json --point=-0.1,0.2"
  "check --spec $tmp/conformal.json --point=0.2,-0.1"
  "curvature --spec $tmp/s2.json --point=0.8,0.3 --k 6"
  "curvature --spec $tmp/h2.json --point=-0.1,0.2 --k 6"
  "alpha --family p=4,$family --grid y=-0.5:0.5:5"
  "curvature --family p=2,$family --point 0.1,0.2,0.3,0.3,0.3,0.1,0.1,0.1,0.1,0.1 --k 3"
)

run() {  # SRC OUT ARGS...: the command's stdout, stderr and exit code
  local src=$1 out=$2
  shift 2
  PYTHONPATH=$src "$python" -c \
    'import sys; from jetgeo.cli import main; sys.exit(main(sys.argv[1:]))' "$@" \
    > "$out.stdout" 2> "$out.stderr"
  echo "exit code $?" > "$out.code"
}

status=0
for n in "${!commands[@]}"; do
  cmd=${commands[$n]}
  # split into words on purpose: no argument holds a space
  run "$base" "$tmp/base.$n" $cmd
  run "$head" "$tmp/head.$n" $cmd
  out=""
  for part in stdout stderr code; do
    out+=$(diff -u --label "base $part" --label "change $part" \
      "$tmp/base.$n.$part" "$tmp/head.$n.$part")
  done
  if [ -z "$out" ]; then
    echo "same: jetgeo $cmd"
  else
    echo "differs: jetgeo $cmd"
    echo "$out"
    status=1
  fi
done
exit $status
