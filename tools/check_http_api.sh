#!/bin/sh
# Smoke-checks the HTTP serving front end end to end: starts the CLI with
# --serve=0 (ephemeral port) over a governed single-tenant registry, then
# curls every v1 endpoint and validates each response against the DESIGN.md
# §13 schemas -- tenants listing, prepare plan shape, execute answers,
# apply-facts snapshot bump, stats counters, /metrics trace JSON, the error
# envelope for malformed bodies and unknown tenants.  Finally it saturates
# the single execution slot with parallel executes of a heavy join and
# requires at least one 429 whose body still parses as a full execute
# result with status REJECTED.
# Usage: check_http_api.sh <path-to-example_owlqr_cli>
# Registered as the ctest test `hygiene/http_api`.
set -u

CLI="${1:?usage: check_http_api.sh <path-to-example_owlqr_cli>}"

tmp=$(mktemp -d) || exit 1
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

cat > "$tmp/onto.txt" <<'EOF'
Professor SUB EX teaches
EX teaches- SUB Course
lectures SUBR teaches
EOF

# Dense course blocks: the 4-atom path query below walks each lecturer set
# against itself twice, so one execute holds the governor slot long enough
# for the parallel overload phase to shed.
python3 - "$tmp/data.txt" <<'EOF'
import sys
with open(sys.argv[1], "w") as f:
    for c in range(4):
        for i in range(40):
            f.write(f"lectures(p{c * 40 + i}, c{c}).\n")
    f.write("Professor(solo).\n")
EOF

QUERY='q(x, w) :- teaches(x, y), teaches(z, y), teaches(z, v), teaches(w, v)'

"$CLI" "$tmp/onto.txt" "$tmp/data.txt" --serve=0 --threads=12 \
    --max-concurrent=1 --queue-timeout-ms=5 2> "$tmp/serve.log" &
SERVER_PID=$!

# The CLI prints the bound ephemeral port once serving.
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/.*http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' "$tmp/serve.log")
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server exited during startup"
    cat "$tmp/serve.log"
    exit 1
  fi
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$PORT" ]; then
  echo "FAIL: server never reported its port"
  cat "$tmp/serve.log"
  exit 1
fi
BASE="http://127.0.0.1:$PORT"

# request NAME METHOD PATH [BODY] -> writes $tmp/NAME.body, $tmp/NAME.code
request() {
  name=$1; method=$2; path=$3; body=${4:-}
  if [ "$method" = GET ]; then
    curl -s -o "$tmp/$name.body" -w '%{http_code}' "$BASE$path" \
        > "$tmp/$name.code"
  else
    curl -s -o "$tmp/$name.body" -w '%{http_code}' -X POST \
        -H 'Content-Type: application/json' --data "$body" "$BASE$path" \
        > "$tmp/$name.code"
  fi
}

expect_code() {
  name=$1; want=$2
  got=$(cat "$tmp/$name.code")
  if [ "$got" != "$want" ]; then
    echo "FAIL: $name returned HTTP $got, want $want"
    cat "$tmp/$name.body"
    exit 1
  fi
}

request tenants GET /v1/tenants
expect_code tenants 200
request prepare POST /v1/t/default/prepare "{\"query\": \"$QUERY\"}"
expect_code prepare 200
request execute POST /v1/t/default/execute "{\"query\": \"$QUERY\"}"
expect_code execute 200
request apply POST /v1/t/default/apply-facts \
    '{"roles": [{"role": "lectures", "subject": "fresh", "object": "c0"}]}'
expect_code apply 200
request execute2 POST /v1/t/default/execute "{\"query\": \"$QUERY\"}"
expect_code execute2 200
request stats GET /v1/t/default/stats
expect_code stats 200
request metrics GET /metrics
expect_code metrics 200
request badbody POST /v1/t/default/execute 'this is not json'
expect_code badbody 400
request ghost POST /v1/t/ghost/execute "{\"query\": \"$QUERY\"}"
expect_code ghost 404

python3 - "$tmp" <<'EOF'
import json
import sys

tmp = sys.argv[1]
def load(name):
    with open(f"{tmp}/{name}.body") as f:
        return json.load(f)

tenants = load("tenants")
assert tenants["api_version"] == 1, tenants
entry = tenants["tenants"][0]
assert entry["name"] == "default", entry
int(entry["fingerprint"], 16)  # Lower-case hex.
assert entry["slots"] == 1, entry

prepare = load("prepare")
assert prepare["clauses"] > 0, prepare
assert prepare["rewriter"] in ("lin", "log", "tw", "twstar", "ucq", "presto"), \
    prepare

execute = load("execute")
assert execute["status"]["code"] == "OK", execute["status"]
assert execute["snapshot_version"] == 1, execute
assert len(execute["answers"]) > 0, "no answers"
width = len(execute["answers"][0])
assert all(len(t) == width for t in execute["answers"]), "ragged tuples"

apply = load("apply")
assert apply["snapshot_version"] == 2, apply

execute2 = load("execute2")
assert execute2["snapshot_version"] == 2, execute2
assert len(execute2["answers"]) > len(execute["answers"]), \
    "applied fact did not grow the answers"
assert any("fresh" in t for t in execute2["answers"]), \
    "applied fact missing from answers"

stats = load("stats")
assert stats["tenant"] == "default", stats
assert stats["snapshot_version"] == 2, stats
assert stats["governor"]["admitted"] >= 2, stats["governor"]
assert "plan_cache" in stats and "answer_cache" in stats, stats

metrics = load("metrics")
for key in ("counters", "timers", "spans"):
    assert key in metrics, f"metrics missing {key!r}"

for name, code in (("badbody", "INVALID_ARGUMENT"), ("ghost", "NOT_FOUND")):
    envelope = load(name)
    assert envelope["error"]["code"] == code, envelope
    assert envelope["error"]["http"] in (400, 404), envelope
EOF
[ $? -eq 0 ] || exit 1

# Overload: 8 parallel executes against 1 slot, each sent with a queue
# budget of 0 (never wait for the slot) -- those that arrive while another
# holds it must be shed as 429, and every 429 body must still be a full
# execute result with status REJECTED.
k=0
LOAD_PIDS=""
while [ $k -lt 8 ]; do
  # Unique limits defeat the answer cache and coalescing, so every request
  # competes for the slot.
  request "load$k" POST /v1/t/default/execute \
      "{\"query\": \"$QUERY\", \"queue_timeout_ms\": 0, \"limits\": {\"max_generated_tuples\": $((9000000 + k))}}" &
  LOAD_PIDS="$LOAD_PIDS $!"
  k=$((k + 1))
done
for pid in $LOAD_PIDS; do
  wait "$pid"
done

python3 - "$tmp" <<'EOF'
import json
import sys

tmp = sys.argv[1]
codes = []
for k in range(8):
    with open(f"{tmp}/load{k}.code") as f:
        codes.append(f.read().strip())
    with open(f"{tmp}/load{k}.body") as f:
        body = json.load(f)
    if codes[-1] == "429":
        assert body["status"]["code"] == "REJECTED", body["status"]
        assert body["answers"] == [], "shed result carried answers"
    else:
        assert codes[-1] == "200", f"load{k}: HTTP {codes[-1]}"
        assert body["status"]["code"] == "OK", body["status"]
assert "429" in codes, f"no shed under overload: {codes}"
assert "200" in codes, f"nothing admitted under overload: {codes}"
EOF
[ $? -eq 0 ] || exit 1

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
status=$?
SERVER_PID=""
if [ "$status" -ne 0 ]; then
  echo "FAIL: server exited with $status on SIGTERM"
  cat "$tmp/serve.log"
  exit 1
fi

echo "OK: http api serves, validates, bumps snapshots, and sheds under load"
