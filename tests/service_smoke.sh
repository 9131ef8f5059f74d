#!/usr/bin/env bash
# End-to-end smoke test for spear_serviced (DESIGN.md §12), driven over the
# real wire protocol:
#
#   1. stdio transport: good DAG -> placed, malformed JSON -> bad_request,
#      bad DAG text -> invalid_dag, oversized DAG -> too_large, whale task
#      -> unschedulable, tenant-tagged high-priority submit -> placed with a
#      per-tenant stats slice, cancel of an unknown id -> not_found; daemon
#      exits 0 on stdin EOF.
#   2. AF_UNIX transport: same checks over a socket connection, plus a
#      deterministic two-tenant cancel exchange (a long search pins the
#      single worker, a queued submit behind it is cancelled), then
#      SIGTERM while a request may be in flight -> supervised drain,
#      exit code 0, and a run report whose "service" counters reconcile.
#
# Usage: service_smoke.sh <path-to-spear_serviced>

set -u

DAEMON="${1:?usage: service_smoke.sh <path-to-spear_serviced>}"
WORKDIR="$(mktemp -d)"
DPID=""
# A failed check exits early: never leave the socket daemon running.
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

GOOD='{"id":"good","method":"submit","dag":"dims 2\ntask a 5 0.5 0.5\ntask b 3 0.5 0.25\nedge a b\n","budget_ms":500}'
MALFORMED='this is not json'
BADDAG='{"id":"baddag","method":"submit","dag":"task without dims header"}'
WHALE='{"id":"whale","method":"submit","dag":"dims 2\ntask w 5 2.0 0.5\n"}'
OVERSIZED='{"id":"oversized","method":"submit","dag":"dims 2\ntask a 1 0.1 0.1\ntask b 1 0.1 0.1\ntask c 1 0.1 0.1\n"}'
TENANT='{"id":"tgood","method":"submit","dag":"dims 2\ntask a 5 0.5 0.5\ntask b 3 0.5 0.25\nedge a b\n","budget_ms":500,"tenant":"alice","priority":"high"}'
CANCELMISS='{"id":"nope","method":"cancel","tenant":"alice"}'
PING='{"id":"p","method":"ping"}'
STATS='{"id":"s","method":"stats"}'

expect_line() {  # <file> <pattern> <label>
  grep -q "$2" "$1" || { cat "$1" >&2; fail "$3: no line matching '$2'"; }
}

echo "=== stdio transport ==="
printf '%s\n' "$PING" "$GOOD" "$MALFORMED" "$BADDAG" "$WHALE" "$OVERSIZED" \
    "$TENANT" "$CANCELMISS" "$STATS" \
  | "$DAEMON" --workers=2 --max-tasks=2 >"$WORKDIR/stdio.out" 2>"$WORKDIR/stdio.err"
rc=$?
[ "$rc" -eq 0 ] || { cat "$WORKDIR/stdio.err" >&2; fail "stdio daemon exited $rc"; }

expect_line "$WORKDIR/stdio.out" '"id":"p".*"result":"pong"' "ping"
expect_line "$WORKDIR/stdio.out" '"id":"good".*"result":"placed"' "good submit"
expect_line "$WORKDIR/stdio.out" '"id":"good".*"task":"a","start":0' "placement a"
expect_line "$WORKDIR/stdio.out" '"code":"bad_request"' "malformed json"
expect_line "$WORKDIR/stdio.out" '"id":"baddag".*"code":"invalid_dag"' "bad dag text"
expect_line "$WORKDIR/stdio.out" '"id":"whale".*"code":"unschedulable"' "whale task"
expect_line "$WORKDIR/stdio.out" '"id":"oversized".*"code":"too_large"' "task-count cap"
expect_line "$WORKDIR/stdio.out" '"id":"tgood".*"result":"placed"' "tenant submit"
expect_line "$WORKDIR/stdio.out" '"id":"nope".*"code":"not_found"' "cancel miss"
# placed may still be in flight when stats is answered (responses are
# async); submitted is counted synchronously at dispatch, so it is exact:
# good + malformed + baddag + whale + oversized + tgood = 6.
expect_line "$WORKDIR/stdio.out" '"id":"s".*"submitted":6' "stats reconcile"
expect_line "$WORKDIR/stdio.out" '"alice":{"submitted":1' "tenant stats slice"
echo "stdio transport OK"

echo "=== socket transport + SIGTERM drain ==="
SOCK="$WORKDIR/spear.sock"
# One worker + an effectively unbounded iteration budget make the cancel
# exchange deterministic: a long search pins the worker while the queued
# victim waits.  (Chain DAGs have only forced decisions, so the other
# submits stay fast regardless of the iteration budget.)
"$DAEMON" --socket="$SOCK" --workers=1 --iterations=50000000 \
  --metrics-out="$WORKDIR/report.json" \
  </dev/null >"$WORKDIR/sock.out" 2>"$WORKDIR/sock.err" &
DPID=$!

for _ in $(seq 1 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { cat "$WORKDIR/sock.err" >&2; fail "socket never appeared"; }

python3 - "$SOCK" >"$WORKDIR/client.out" <<'EOF' || fail "socket client errored"
import json, socket, sys, time

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
f = s.makefile("rw")

def rpc(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
    return json.loads(f.readline())

dag = "dims 2\ntask a 5 0.5 0.5\ntask b 3 0.5 0.25\nedge a b\n"
r = rpc({"id": "g1", "method": "submit", "dag": dag, "budget_ms": 500})
assert r["ok"] and r["result"] == "placed", r
assert {p["task"] for p in r["placements"]} == {"a", "b"}, r

r = rpc({"id": "bad", "method": "submit", "dag": "not a dag"})
assert not r["ok"] and r["error"]["code"] == "invalid_dag", r

r = rpc({"id": "w", "method": "submit", "dag": "dims 2\ntask w 9 3.0 0.5\n"})
assert not r["ok"] and r["error"]["code"] == "unschedulable", r

r = rpc({"id": "s", "method": "stats"})
assert r["ok"] and r["stats"]["placed"] == 1, r
assert r["stats"]["rejected"]["total"] == 2, r

# Two-tenant cancel exchange.  Independent tasks force a REAL search, and
# the daemon's 50M-iteration budget means it runs until the 3s deadline —
# pinning the single worker while "jq" waits in the queue behind it.
slow = "dims 2\n" + "".join(
    "task s%d 4 0.4 0.4\n" % i for i in range(4))
dag_chain = dag
f.write(json.dumps({"id": "jslow", "method": "submit", "dag": slow,
                    "tenant": "alice", "budget_ms": 3000}) + "\n")
f.flush()
# Submit "jq" only once the worker holds "jslow": a high-priority job that
# is queued next to "jslow" would be served first.  Polled over a second
# connection so this one's reply order stays as asserted below.
probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
probe.connect(sys.argv[1])
pf = probe.makefile("rw")
for _ in range(1000):
    pf.write(json.dumps({"id": "poll", "method": "stats"}) + "\n")
    pf.flush()
    st = json.loads(pf.readline())["stats"]
    if st["queue_depth"] == 0 and st["in_flight"] == 1:
        break
    time.sleep(0.005)
else:
    raise AssertionError("jslow never reached the worker: %r" % st)
f.write(json.dumps({"id": "jq", "method": "submit", "dag": dag_chain,
                    "tenant": "alice", "priority": "high",
                    "budget_ms": 3000}) + "\n")
f.write(json.dumps({"id": "jq", "method": "cancel", "tenant": "alice"}) + "\n")
f.flush()
# Queued cancel answers the ORIGINAL submit first, then acks the cancel.
orig = json.loads(f.readline())
assert orig["id"] == "jq" and not orig["ok"], orig
assert orig["error"]["code"] == "cancelled", orig
ack = json.loads(f.readline())
assert ack["id"] == "jq" and ack["ok"] and ack["result"] == "cancelled", ack
assert ack["state"] == "queued", ack
slow_reply = json.loads(f.readline())
assert slow_reply["id"] == "jslow" and slow_reply["ok"], slow_reply

r = rpc({"id": "s2", "method": "stats"})
assert r["stats"]["tenants"]["alice"]["submitted"] == 2, r
assert r["stats"]["tenants"]["alice"]["cancelled"] == 1, r
assert r["stats"]["cancel"]["queued"] == 1, r
print("CANCEL_EXCHANGE_OK")

# Leave one request racing the shutdown: the drain must still answer it.
f.write(json.dumps({"id": "last", "method": "submit", "dag": dag}) + "\n")
f.flush()
print("CLIENT_DONE")
last = json.loads(f.readline())
assert last["id"] == "last" and "ok" in last, last
print("LAST_ANSWERED", last["ok"])
EOF

grep -q "CANCEL_EXCHANGE_OK" "$WORKDIR/client.out" || fail "cancel exchange failed"
grep -q "CLIENT_DONE" "$WORKDIR/client.out" || fail "client did not finish"

kill -TERM "$DPID"
wait "$DPID"
rc=$?
[ "$rc" -eq 0 ] || { cat "$WORKDIR/sock.err" >&2; fail "SIGTERM drain exited $rc"; }
grep -q "LAST_ANSWERED" "$WORKDIR/client.out" || fail "in-flight request lost in drain"
[ -e "$SOCK" ] && fail "socket file not cleaned up"
[ -s "$WORKDIR/report.json" ] || fail "run report not flushed on shutdown"
python3 - "$WORKDIR/report.json" <<'EOF' || fail "report service counters do not reconcile"
import json, sys

c = json.load(open(sys.argv[1]))["meta"]["service"]
# g1, bad, w, jslow, jq, last: every one answered before the SIGTERM.
assert c["submitted"] == 6 and c["in_flight"] == 0, c
assert c["submitted"] == (c["placed"] + c["rejected"]["total"] +
                          c["cancelled"] + c["in_flight"]), c
EOF
echo "socket transport + drain OK"

echo "PASS: service smoke"
