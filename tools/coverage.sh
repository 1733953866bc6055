#!/usr/bin/env bash
# Coverage ledger: which production functions does no user command reach?
#
# Builds every command and example with -cover over the whole module, runs
# the commands the README documents (repro, mtmrsim, topogen, traceview,
# every example, and two mtmrd shards behind a -fanout coordinator driven
# over real HTTP), merges the counters with `go tool covdata textfmt` and
# prints every function left at 0%. Each of them must be named in
# DESIGN.md §21 with the test or the reason that keeps it; the script exits
# 1 when one is not.
#
#   bash tools/coverage.sh [OUTDIR]     # default OUTDIR: .coverage/
#
# OUTDIR receives coverage.out (the merged profile), func.txt (per-function
# coverage), zero.txt (the 0% functions) and the run's logs. The ledger
# names a function as `path:Func` (path relative to the module root, Func
# as `go tool cover -func` prints it, without receiver) or a whole file as
# `path:*`. Needs curl and python3; takes about 40 s on two cores.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=${1:-$ROOT/.coverage}
rm -rf "$OUT"
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
BIN=$OUT/bin
WORK=$OUT/work
export GOCOVERDIR=$OUT/covdata
mkdir -p "$BIN" "$WORK" "$GOCOVERDIR"
cd "$ROOT"

PIDS=()
cleanup() {
	for p in "${PIDS[@]}"; do kill -9 "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

step() { echo "[coverage] $*" >&2; }

step "building commands and examples with -cover"
for d in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$BIN/$(basename "$d")" "./$d"
done

# Quiet runs: output goes to a per-command log; a failing command stops
# the script. fails runs a command that must exit nonzero (bad input,
# timeouts).
run() {
	local log=$WORK/$1.log
	shift
	"$@" >"$log" 2>&1 || { echo "[coverage] failed: $* (see $log)" >&2; exit 1; }
}
fails() {
	local log=$WORK/$1.log
	shift
	if "$@" >"$log" 2>&1; then
		echo "[coverage] expected a failure: $* (see $log)" >&2
		exit 1
	fi
}

step "repro: every figure"
run repro "$BIN/repro" -fig all -runs 2 -workers 2 -with-gmr -csv "$WORK/csv" \
	-cpuprofile "$WORK/repro.cpu" -memprofile "$WORK/repro.mem"
fails repro-timeout "$BIN/repro" -fig 5 -runs 50 -workers 2 -timeout 1ms

step "topogen: grid, random, check, motion (random waypoint, rpgm)"
run topogen-grid sh -c "'$BIN/topogen' > '$WORK/grid.json'"
run topogen-random sh -c "'$BIN/topogen' -kind random -nodes 150 -seed 3 -motion '$WORK/rwp.json' -pause 100ms > '$WORK/random.json'"
run topogen-rpgm sh -c "'$BIN/topogen' -kind random -nodes 150 -seed 3 -motion '$WORK/rpgm.json' -model rpgm > /dev/null"
run topogen-check "$BIN/topogen" -check "$WORK/random.json"
run topogen-scaled sh -c "'$BIN/topogen' -kind random -nodes 300 -side 0 > '$WORK/scaled.json'"

step "mtmrsim: six protocols on the grid and on a random field"
for p in mtmrp mtmrp-nophs dodmrp odmrp flood gmr; do
	run "mtmrsim-$p" "$BIN/mtmrsim" -proto "$p" -packets 3 -stats -v -snapshot -trace "$WORK/$p.jsonl"
	run "mtmrsim-$p-random" "$BIN/mtmrsim" -proto "$p" -topo random -nodes 150 -seed 2 -packets 2 -rounds 2
done
run mtmrsim-file "$BIN/mtmrsim" -topo file -topofile "$WORK/random.json" -receivers 10
run mtmrsim-scaled "$BIN/mtmrsim" -topo random -nodes 300 -side 0 -receivers 10 -stats \
	-cpuprofile "$WORK/mtmrsim.cpu" -memprofile "$WORK/mtmrsim.mem"
fails mtmrsim-badproto "$BIN/mtmrsim" -proto bogus
fails mtmrsim-toomany "$BIN/mtmrsim" -receivers 1000

step "traceview: an event log and a motion file"
run traceview "$BIN/traceview" "$WORK/mtmrp.jsonl"
run traceview-motion "$BIN/traceview" -motion "$WORK/rwp.json"

step "examples"
for d in examples/*; do
	n=$(basename "$d")
	run "example-$n" "$BIN/$n"
done

step "mtmrd: two shards behind a fan-out coordinator"
read -r P0 P1 PF < <(python3 -c '
import socket
s = [socket.socket() for _ in range(3)]
for x in s: x.bind(("127.0.0.1", 0))
print(*[x.getsockname()[1] for x in s])
for x in s: x.close()
')
"$BIN/mtmrd" -addr "127.0.0.1:$P0" -store "$WORK/shard0.store" -sweep-workers 2 \
	-shard-index 0 -shard-count 2 2>"$WORK/shard0.log" &
S0=$!
PIDS+=("$S0")
"$BIN/mtmrd" -addr "127.0.0.1:$P1" -store "$WORK/shard1.store" -sweep-workers 2 \
	-shard-index 1 -shard-count 2 2>"$WORK/shard1.log" &
S1=$!
PIDS+=("$S1")
"$BIN/mtmrd" -addr "127.0.0.1:$PF" -store "$WORK/front.store" -sweep-workers 2 \
	-fanout -peers "http://127.0.0.1:$P0,http://127.0.0.1:$P1" -fanout-probe 200ms 2>"$WORK/front.log" &
SF=$!
PIDS+=("$SF")
for port in "$P0" "$P1" "$PF"; do
	for _ in $(seq 1 100); do
		curl -sf "http://127.0.0.1:$port/healthz" >/dev/null && break
		sleep 0.1
	done
	curl -sf "http://127.0.0.1:$port/healthz" >/dev/null
done

F=http://127.0.0.1:$PF
post() { curl -s -D "$WORK/h.$1" -o "$WORK/b.$1" -X POST -d "$3" "$2"; }
post sweep "$F/v1/sweep" '{"topo":"grid","runs":4}'
post repeat "$F/v1/sweep" '{"runs":4,"n":4}'
grep -qi '^x-mtmrd-cache: hit' "$WORK/h.repeat"
post stream "$F/v1/sweep?stream=1" '{"sizes":[5,10],"runs":3,"seed":9}'
KEY=$(grep -i '^x-mtmrd-key:' "$WORK/h.sweep" | tr -d '\r' | awk '{print $2}')
curl -s -o "$WORK/b.result" "$F/v1/result/$KEY"
curl -s -o "$WORK/b.badkey" "$F/v1/result/not-a-key"
post run "$F/v1/run" '{"group_size":10,"protocol":"mtmrp","seed":1,"faults":{"fail_fraction":0.2,"downtime_ms":300},"traffic":{"data_packets":3,"interval_ms":50}}'
post ideal "$F/v1/run" '{"group_size":10,"protocol":"odmrp","radio":{"mac":"ideal"}}'
post split "$F/v1/sweep/split" '{"topo":"grid"}'
post fault "$F/v1/sweep" '{"kind":"fault","fail_fractions":[0,0.2],"runs":2}'
post mobility "$F/v1/sweep" '{"kind":"mobility","speeds":[0,10],"pauses_ms":[0],"runs":2}'
post badspec "$F/v1/sweep" '{"topo":"nope"'
curl -s -o "$WORK/b.stats" "$F/v1/stats"
# A streamed sweep straight at the shards: the coordinator answers its
# clients with whole responses, so only a direct submission streams
# progress out of a shard. One shard owns each key; the other answers
# 421.
for port in "$P0" "$P1"; do
	post "stream$port" "http://127.0.0.1:$port/v1/sweep?stream=1" '{"sizes":[15],"runs":3,"seed":11}'
	post "sweep$port" "http://127.0.0.1:$port/v1/sweep" '{"sizes":[20],"runs":2,"seed":3}'
	post "badspec$port" "http://127.0.0.1:$port/v1/sweep" '{"topo":"nope"}'
	curl -s -o "$WORK/b.stats$port" "http://127.0.0.1:$port/v1/stats"
done
# Reaping the killed shard quietly keeps bash from reporting it.
{ kill -9 "$S1" && wait "$S1"; } 2>/dev/null || true
post fallback "$F/v1/sweep" '{"sizes":[5,10,15],"runs":2,"seed":5}'
grep -qi '^x-mtmrd-source: composed' "$WORK/h.fallback"
kill -TERM "$SF" "$S0"
wait "$SF" "$S0" || true
PIDS=()
grep -q 'drained cleanly' "$WORK/front.log"

step "merging"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$OUT/coverage.out"
go tool cover -func="$OUT/coverage.out" >"$OUT/func.txt"
# Production code only: test references in _test.go files never build
# into a command.
grep -P '\t0\.0%$' "$OUT/func.txt" | awk -F'\t+' '{sub(/^mtmrp\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ":" $2}' |
	sort >"$OUT/zero.txt"
total=$(tail -1 "$OUT/func.txt" | awk '{print $NF}')
echo "statements covered: $total"
echo "functions at 0%: $(wc -l <"$OUT/zero.txt")"

# The ledger: every 0% function named in DESIGN.md §21.
ledger=$(awk '/^## 21\./{on=1; next} on && /^## /{exit} on' DESIGN.md)
missing=0
while IFS= read -r fn; do
	file=${fn%%:*}
	if ! grep -qF "\`$fn\`" <<<"$ledger" && ! grep -qF "\`$file:*\`" <<<"$ledger"; then
		echo "not in DESIGN.md §21: $fn"
		missing=$((missing + 1))
	fi
done <"$OUT/zero.txt"
if [ "$missing" -gt 0 ]; then
	echo "$missing function(s) at 0% are not in the coverage ledger (DESIGN.md §21)" >&2
	exit 1
fi
echo "every 0% function is in the ledger"
