#!/usr/bin/env bash
# The checks that run primesq in cold processes, after the tier-1 tests.
# Run from the repository root: bash ci/cold.sh. Files it writes go to a
# temporary directory that is removed when it exits.
set -euo pipefail

root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

step() { printf '\n== %s\n' "$1"; }
primesq() { PYTHONPATH="$root/src" python -m primesq "$@"; }

step "Default suite"
primesq report all --workers 2

step "Deferred imports in a cold process"
# strict runs load mpmath on first use, and --workers 2 multiprocessing;
# both must give the one-worker report byte for byte
for w in 1 2; do
  primesq report all --precision strict --format json --workers "$w" > "strict-$w.json"
done
cmp strict-1.json strict-2.json

step "One checkpoint resumed by other targets in cold processes"
# a checkpoint holds only its range's counts: the c2 campaign's file, resumed
# by a strict theorem run and by a lemma run, gives each one its fresh bytes
# and stays as it is
span="--from 5 --to 1600 --workers 2"
primesq verify c2 $span --checkpoint ck.txt --format csv > c2.csv
cp ck.txt ck-c2.txt
for run in "theorem --precision strict --format csv" "lemmas --format json"; do
  primesq verify $run $span > fresh.out
  primesq verify $run $span --checkpoint ck.txt --resume > resumed.out
  cmp fresh.out resumed.out
done
cmp ck.txt ck-c2.txt

step "A campaign killed mid-run resumes to the fresh bytes"
# a real kill -9 of a two-worker campaign's own process, once its checkpoint
# holds a header and 19 chunks of 118: its workers must die with it, within
# 2 s. The resume counts the rest and must print the fresh run's CSV. Then
# two edits of the finished file that a resume must refuse: f(615) raised by
# one (its counts then miss pi(60001^2), exit 3) and a version-3 header
# (exit 2)
span="--from 3 --to 60000 --workers 2"
primesq verify c2 $span --format csv > fresh.csv
rm -f ck.txt
PYTHONPATH="$root/src" python -m primesq verify c2 $span --checkpoint ck.txt --format csv > killed.csv &
run=$!
until [ -f ck.txt ] && [ "$(wc -l < ck.txt)" -ge 20 ]; do
  kill -0 "$run" 2> /dev/null || { echo "the campaign ended before it was killed"; exit 1; }
  sleep 0.02
done
workers=$(pgrep -P "$run" || true)
kill -9 "$run"
wait "$run" || true
echo "killed with $(wc -l < ck.txt) checkpoint lines; workers: $(echo $workers)"
test -n "$workers" || { echo "the campaign had no workers when it was killed"; exit 1; }
alive() {  # the pids among $workers still running: gone and zombie ones are not
  for pid in $workers; do
    ps -o stat= -p "$pid" | grep -qv '^Z' && echo "$pid"
  done
  true
}
deadline=$(($(date +%s%N) + 2000000000))
while [ -n "$(alive)" ] && [ "$(date +%s%N)" -lt "$deadline" ]; do
  sleep 0.02
done
left=$(alive)
if [ -n "$left" ]; then
  echo "workers outlived the campaign by 2 s: $(echo $left)"
  kill -9 $left
  exit 1
fi
primesq verify c2 $span --checkpoint ck.txt --resume --format csv > resumed.csv
cmp fresh.csv resumed.csv
edit() {  # edit FILE PYTHON: run PYTHON on the header h and records recs of FILE, then write them back
  python3 - "$1" "$2" <<'PY'
import json, sys
path, code = sys.argv[1:]
h, *recs = map(json.loads, open(path).read().splitlines())
exec(code)
open(path, "w").write("".join(json.dumps(x) + "\n" for x in [h, *recs]))
PY
}
resume_exit() {
  rc=0
  primesq verify c2 $span --checkpoint "$1" --resume --format csv > /dev/null || rc=$?
  echo "$rc"
}
cp ck.txt bug2.txt
edit bug2.txt 'recs[1]["f"][615 - recs[1]["chunk_start"]] += 1'
test "$(resume_exit bug2.txt)" = 3
cp ck.txt v3.txt
edit v3.txt 'h["version"] = 3'
test "$(resume_exit v3.txt)" = 2

step "Far lemma campaign in a cold process"
# the exact running sum of r(k) from an empty state to n = 999487, read a
# chunk at a time; the report keeps the bytes recorded when that sum was
# a compensated float sum
out=$(primesq verify lemmas --from 998976 --to 999487 --workers 2 --format json | sha256sum)
echo "$out"
test "$out" = "2fc5b6596821df111bfe28037407401e4e7b93f49f98756a23f4c280bc138130  -"

step "Strict far lemma campaign in a cold process"
# strict lemma rows re-judge each boundary from 160-bit sides, which read
# the same exact running sum of r(k) as the double rows
out=$(primesq verify lemmas --from 99840 --to 100351 --precision strict --workers 2 --format json | sha256sum)
echo "$out"
test "$out" = "310d00063de15d06337a2a2944cfe2fdbe59b59d858e19676262c45c19db0391  -"

step "Far margin campaign in a cold process"
# c2 rows at n near 1e6, each n's delta, r and log^2 n loglog n from one
# formula; one floor there escalates to 160 bits. The CSV keeps the bytes
# recorded when delta, r and log^2 n loglog n were three formulas
out=$(primesq verify c2 --from 999488 --to 999999 --workers 2 --format csv | sha256sum)
echo "$out"
test "$out" = "b7d9b4d81ccba0919414ddd3952cbc17d9095b1d538f4eb4dd019fb3f036a202  -"

step "g(n) in cold processes"
# whole g runs: 15000 is the benchmark's two blocks of windows; 100000 and
# 300000 take 13 and 37 blocks, candidates up to 1e10 and 9e10 and batches
# whose candidates cross psi_4. Each round tests base 2 on every candidate,
# then holds each base-2 survivor once per further base its size needs
for n in 15000 100000 300000; do
  out=$(primesq compute g --n "$n")
  echo "g($n) = $out"
  test "$out" = "$n"
done

step "Combinatorial pi at its documented limit in a cold process"
# pi(10^12) from a fresh interpreter: the rough-index recurrence with its
# largest tables, 168 compacting steps and 1061 over the primes after them
out=$(primesq compute pi --x 1000000000000 --method combinatorial)
echo "pi(10^12) = $out"
test "$out" = "37607912018"

step "Window-sieve pi at its documented limit in a cold process"
# pi(10^10) from a fresh interpreter by both methods: the window sieve's 3179
# full segments, each copied from the pre-sieve pattern, must agree with the
# combinatorial counter, or the command exits 3
out=$(primesq compute pi --x 10000000000 --method both)
echo "pi(10^10) = $out"
test "$out" = "455052511"

step "f(n) at the top of its range in a cold process"
# the window (9999999^2, 10^14) from an empty base-prime table, which the
# window sieve builds once, at 9999999 rounded up to a block of 2^16
out=$(primesq compute f --n 9999999)
echo "f(9999999) = $out"
printf '621074\n' | diff - <(echo "$out")

step "M(n) at 1e6 and 1e7 in a cold process"
# the run whose floors escalate most (about 7% of k near 9e6), each once at
# 160 bits; the rows must match the README's M(n) table
primesq table c3 --ns 1000000,9999999 --format csv > c3.csv
cat c3.csv
printf 'n,s_sum,m,ratio\n1000000,36126144806,998928,0.998928\n9999999,3101254703692,9998537,0.999854\n' | diff - c3.csv

step "Benchmark correctness gate"
# each run's last stdout line is a JSON object; "correct" is false when any
# iteration's exit codes or output digests differ from perfbench/refs.json
cd "$root"
gate() {
  last=$(python3 perfbench/run.py --workload "$1" --seed 0 --seconds 2 --trace "$2" | tail -n 1)
  echo "$1 --trace $2: $last"
  python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' "$last"
}
for workload in report_all campaign_far hits_far; do gate "$workload" 0; done
gate campaign_far 1  # the tracer looks up every traced name
