#!/bin/sh
# Regenerate the committed virtual outputs of `mdsim run` into OUTDIR.
#
#   results/runs/regen.sh OUTDIR
#
# Builds mdsim, then runs a fixed set of 10-step runs at --domains 2 and
# the default seed on each of the seven device models, one directory per
# run under OUTDIR/DEVICE/:
#
#   n2-128, n2-864, pairlist-864, n2-2048, pairlist-2048
#       report.txt (stdout minus its 'wrote' lines), metrics.json and
#       counters.json;
#   faults-864  the same under --faults all:1e-4,seed=5, plus faults.json;
#   ckpt-864    the same under --checkpoint-every 5 and telemetry every 5
#       steps, plus telemetry.txt (the `mdsim tail --virtual` projection)
#       and checkpoints.sha256 (one line per checkpoint generation).
#
# Every file holds virtual (modelled-device) outputs only, so the set is
# byte-identical on any host.  CI diffs it against results/runs/; a change
# that moves any of these outputs regenerates them in the same commit.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
root=$(cd "$(dirname "$0")/../.." && pwd)
(cd "$root" && dune build bin/mdsim.exe)
mdsim=$root/_build/default/bin/mdsim.exe
mkdir -p "$1"
out=$(cd "$1" && pwd)

# run DEVICE CASE ARGS...: one run in OUTDIR/DEVICE/CASE.
run() {
  dev=$1
  dir=$out/$1/$2
  shift 2
  mkdir -p "$dir"
  cd "$dir"
  "$mdsim" run --device "$dev" --steps 10 --domains 2 \
    --metrics metrics.json --counters counters.json "$@" > stdout.txt
  grep -v '^wrote ' stdout.txt > report.txt
  rm stdout.txt
}

for dev in opteron cell cell-1spe ppe gpu mta mta-partial; do
  run "$dev" n2-128 --atoms 128 --engine n2
  for n in 864 2048; do
    for engine in n2 pairlist; do
      run "$dev" "$engine-$n" --atoms "$n" --engine "$engine"
    done
  done
  run "$dev" faults-864 --atoms 864 --faults all:1e-4,seed=5 \
    --fault-log faults.json
  run "$dev" ckpt-864 --atoms 864 --checkpoint-every 5 --checkpoint-dir ckpt \
    --telemetry telemetry.jsonl --telemetry-every 5
  "$mdsim" tail telemetry.jsonl --virtual > telemetry.txt
  (cd ckpt && sha256sum ckpt-*.mdsim) > checkpoints.sha256
  rm -r ckpt telemetry.jsonl
done
