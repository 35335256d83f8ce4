#!/bin/sh
# Co-simulation service smoke: drive nocserve end to end.
#
#   1. stdio: a scripted session that injects traffic, runs cycles,
#      reads a flow answer, and parks, beside a second session on an
#      inline platform config that parks too — then a second server
#      process resumes both from the shared park directory (restart
#      survival).
#   2. HTTP: health endpoint plus one open/xfer/close session, and a
#      1 024-node mesh session (past the paper's 4 × 1024 bus map) that
#      lands one xfer and answers stats.
#
# Checks: every response ok, the xfer answers carry nonzero latency,
# each resumed session continues at its parked cycle, the park
# directory holds one file per parked session and none once they are
# closed, and the server exits cleanly. The stdio transcript lands in
# $OUT for CI to upload.
set -eu

OUT="${OUT:-serve-smoke}"
mkdir -p "$OUT"
PARK="$OUT/park"
rm -rf "$PARK"

# parked N: the park directory holds exactly N entries.
parked() {
	n=$(find "$PARK" -type f 2>/dev/null | wc -l)
	[ "$n" -eq "$1" ] || { echo "FAIL: park dir holds $n files, want $1"; exit 1; }
}
# cycle_at L: the cycle answered on transcript line L.
cycle_at() { sed -n "${1}p" "$OUT/transcript.jsonl" | sed 's/.*"cycle"://;s/[,}].*//'; }

go build -o "$OUT/nocserve" ./cmd/nocserve

# --- stdio leg 1: two sessions, the second on an inline config, parked
"$OUT/nocserve" -park-dir "$PARK" > "$OUT/transcript.jsonl" <<'EOF'
{"v":1,"id":1,"op":"open","sid":"smoke","platform":{"topo":"mesh:w=4,h=4","workload":"uniform","injection":0.1,"warmup":500}}
{"v":1,"id":2,"op":"inject","sid":"smoke","src":0,"dst":21,"bytes":128,"count":4}
{"v":1,"id":3,"op":"step","sid":"smoke","cycles":400}
{"v":1,"id":4,"op":"flow","sid":"smoke","src":0,"dst":21}
{"v":1,"id":5,"op":"xfer","sid":"smoke","src":3,"dst":18,"bytes":64}
{"v":1,"id":6,"op":"stats","sid":"smoke"}
{"v":1,"id":7,"op":"park","sid":"smoke"}
{"v":1,"id":8,"op":"open","sid":"inline","platform":{"config":{"name":"ring4","topology":{"kind":"ring","params":{"n":4},"sources":[{"id":0,"switch":0},{"id":1,"switch":1}],"sinks":[{"id":100,"switch":2},{"id":101,"switch":3}]},"tgs":[{"endpoint":0,"model":"uniform","dst_policy":"fixed","dsts":[100],"uniform":{"len_min":2,"len_max":4,"gap_min":20,"gap_max":40},"limit":50},{"endpoint":1,"model":"uniform","dst_policy":"fixed","dsts":[101],"uniform":{"len_min":1,"len_max":2,"gap_min":50,"gap_max":90},"limit":20}],"trs":[{"endpoint":100,"mode":"stochastic"},{"endpoint":101,"mode":"stochastic"}]},"warmup":200}}
{"v":1,"id":9,"op":"xfer","sid":"inline","src":1,"dst":101,"bytes":32}
{"v":1,"id":10,"op":"park","sid":"inline"}
EOF
parked 2

# --- stdio leg 2: a fresh server process resumes both parked sessions
"$OUT/nocserve" -park-dir "$PARK" >> "$OUT/transcript.jsonl" <<'EOF'
{"v":1,"id":11,"op":"resume","sid":"smoke"}
{"v":1,"id":12,"op":"xfer","sid":"smoke","src":5,"dst":20,"bytes":32}
{"v":1,"id":13,"op":"close","sid":"smoke"}
{"v":1,"id":14,"op":"resume","sid":"inline"}
{"v":1,"id":15,"op":"xfer","sid":"inline","src":0,"dst":100,"bytes":16}
{"v":1,"id":16,"op":"close","sid":"inline"}
EOF
parked 0

echo "--- stdio transcript ---"
cat "$OUT/transcript.jsonl"

[ "$(wc -l < "$OUT/transcript.jsonl")" -eq 16 ] || { echo "FAIL: expected 16 responses"; exit 1; }
grep -q '"err"' "$OUT/transcript.jsonl" && { echo "FAIL: error response in transcript"; exit 1; }
# Every oracle call must land with a nonzero latency answer, and the
# flow query must report nonzero mean latency over the injected packets.
[ "$(grep -c '"delivered":true' "$OUT/transcript.jsonl")" -eq 4 ] || { echo "FAIL: xfer not delivered"; exit 1; }
grep -q '"delivered":true,"latency":0[,}]' "$OUT/transcript.jsonl" && { echo "FAIL: zero xfer latency"; exit 1; }
grep -q '"flow":{"packets":4,"mean":0' "$OUT/transcript.jsonl" && { echo "FAIL: zero flow latency"; exit 1; }
grep -q '"flow":{"packets":4' "$OUT/transcript.jsonl" || { echo "FAIL: flow lost packets"; exit 1; }
# Each resumed session continues at the cycle it parked at (transcript
# lines park:resume).
for pair in 7:11 10:14; do
	park_cycle=$(cycle_at "${pair%:*}")
	resume_cycle=$(cycle_at "${pair#*:}")
	[ "$park_cycle" = "$resume_cycle" ] || { echo "FAIL: resumed at $resume_cycle, parked at $park_cycle"; exit 1; }
done

# --- HTTP leg: healthz + one session over POST /v1/rpc ---------------
"$OUT/nocserve" -http 127.0.0.1:0 -park-dir "$PARK" 2> "$OUT/http.log" &
SRV=$!
trap 'kill $SRV 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
	ADDR=$(sed -n 's#.*listening on http://##p' "$OUT/http.log")
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: server never announced its address"; exit 1; }

curl -fsS "http://$ADDR/healthz" | grep -q ok || { echo "FAIL: healthz"; exit 1; }
open_resp=$(curl -fsS -X POST --data '{"v":1,"id":1,"op":"open","sid":"http","platform":{"topo":"torus:w=3,h=3","warmup":100}}' "http://$ADDR/v1/rpc")
echo "$open_resp" | grep -q '"ok":true' || { echo "FAIL: http open: $open_resp"; exit 1; }
xfer_resp=$(curl -fsS -X POST --data '{"v":1,"id":2,"op":"xfer","sid":"http","src":2,"dst":13,"bytes":64}' "http://$ADDR/v1/rpc")
echo "$xfer_resp" | grep -q '"delivered":true' || { echo "FAIL: http xfer: $xfer_resp"; exit 1; }
echo "$xfer_resp" | grep -q '"latency":0[,}]' && { echo "FAIL: zero http xfer latency"; exit 1; }
curl -fsS -X POST --data '{"v":1,"id":3,"op":"close","sid":"http"}' "http://$ADDR/v1/rpc" | grep -q '"ok":true' || { echo "FAIL: http close"; exit 1; }
printf '%s\n%s\n' "$open_resp" "$xfer_resp" >> "$OUT/transcript.jsonl"

# Every device of a 32x32 mesh has a bus address, so the session opens
# and its answers come off the buses like a small one's.
rpc() { curl -fsS -X POST --data "$1" "http://$ADDR/v1/rpc"; }
big_open=$(rpc '{"v":1,"id":4,"op":"open","sid":"big","platform":{"topo":"mesh:w=32,h=32"}}')
echo "$big_open" | grep -q '"ok":true' || { echo "FAIL: 32x32 open: $big_open"; exit 1; }
big_xfer=$(rpc '{"v":1,"id":5,"op":"xfer","sid":"big","src":0,"dst":2047,"bytes":64}')
echo "$big_xfer" | grep -q '"delivered":true' || { echo "FAIL: 32x32 xfer: $big_xfer"; exit 1; }
big_stats=$(rpc '{"v":1,"id":6,"op":"stats","sid":"big"}')
echo "$big_stats" | grep -q '"stats":{"packets":1,' || { echo "FAIL: 32x32 stats: $big_stats"; exit 1; }
rpc '{"v":1,"id":7,"op":"close","sid":"big"}' | grep -q '"ok":true' || { echo "FAIL: 32x32 close"; exit 1; }
printf '%s\n%s\n%s\n' "$big_open" "$big_xfer" "$big_stats" >> "$OUT/transcript.jsonl"

# Graceful shutdown: SIGTERM, then the process must exit on its own.
kill -TERM $SRV
wait $SRV || { echo "FAIL: server exited nonzero on SIGTERM"; exit 1; }
trap - EXIT

echo "serve smoke OK"
