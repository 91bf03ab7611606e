#!/bin/sh
# File-descriptor limit test for `dse serve` and the fleet router
# (DESIGN.md sections 11.4 and 16.2).  The OCaml stdlib cannot set
# rlimits, so the limits come from `ulimit -n` in subshells here, and a
# small python3 socket holder opens the client connections.  Three legs:
#   (i)   under `ulimit -n 128`, 200 idle connections exhaust the fds of
#         `dse serve` and of `dse fleet serve -n 1`: both must survive,
#         count the failed accepts in dse_accept_errors_total, and answer
#         a fresh client normally once the holder lets go;
#   (ii)  under `ulimit -n 2048`, 1,100 concurrent router connections
#         (many on fds above FD_SETSIZE = 1024) each send one request
#         and each get a reply;
#   (iii) after 10,000 short connections, the server's and the
#         router's thread and fd counts are back near their start.
# Usage: sh scripts/fd_limits.sh [i] [ii] [iii]   (default: all legs)
set -eu

legs=" ${*:-i ii iii} "
want() { case "$legs" in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

dune build bin/dse.exe
dse="$root/_build/default/bin/dse.exe"

work=$(mktemp -d)
pids=""
holder=""
cleanup() {
    for p in $pids $holder; do kill "$p" 2>/dev/null || true; done
    for p in $pids $holder; do wait "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in "$work"/*.log; do
        [ -f "$log" ] && { echo "--- $log" >&2; tail -n 20 "$log" >&2; }
    done
    exit 1
}

cat > "$work/holder.py" <<'EOF'
import os, socket, sys, time

def connect(path, wait):
    # wait=False: give up at once when the listen backlog is full
    # (a non-blocking AF_UNIX connect fails with EAGAIN); wait=True:
    # block until the backlog has room
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(None if wait else 0.5)
    try:
        s.connect(path)
    except OSError:
        s.close()
        return None
    s.settimeout(10.0)
    return s

def reply(s):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    return buf.decode(errors="replace")

mode, path = sys.argv[1], sys.argv[2]
if mode == "hold":
    # open up to N connections (retrying a full backlog until no new
    # connection has succeeded for half a second), report how many,
    # hold them until the release file appears, then close them all
    n, ready, release = int(sys.argv[3]), sys.argv[4], sys.argv[5]
    held, last = [], time.time()
    while len(held) < n and time.time() - last < 0.5:
        s = connect(path, False)
        if s:
            held.append(s)
            last = time.time()
        else:
            time.sleep(0.01)
    with open(ready, "w") as f:
        f.write("%d\n" % len(held))
    deadline = time.time() + 60
    while not os.path.exists(release) and time.time() < deadline:
        time.sleep(0.05)
    for s in held:
        s.close()
elif mode == "burst":
    # N connections open at once, one request on each, one reply each
    n, req = int(sys.argv[3]), sys.argv[4].encode() + b"\n"
    conns = []
    for i in range(n):
        s = connect(path, True)
        if s is None:
            sys.exit("connection %d refused" % i)
        conns.append(s)
    for s in conns:
        s.sendall(req)
    bad = [i for i, s in enumerate(conns) if '"ok":true' not in reply(s)]
    if bad:
        sys.exit("%d of %d connections got no ok reply (first: #%d)" % (len(bad), n, bad[0]))
    print("burst: %d of %d connections answered" % (n, n))
elif mode == "churn":
    # N short connections in a row: connect, one request, reply, close
    n, req = int(sys.argv[3]), sys.argv[4].encode() + b"\n"
    for i in range(n):
        s = connect(path, True)
        if s is None:
            sys.exit("connection %d refused" % i)
        s.sendall(req)
        r = reply(s)
        s.close()
        if '"ok":true' not in r:
            sys.exit("connection %d: %r" % (i, r))
EOF

wait_for() {  # wait_for SOCK LOG: until the endpoint answers healthz
    i=0
    until "$dse" client --socket "$1" '{"op":"healthz"}' 2>/dev/null | grep -q '"ok":true'; do
        i=$((i + 1))
        [ "$i" -gt 150 ] && fail "$1 did not come up"
        sleep 0.2
    done
}

start_server() {  # start_server NAME NOFILE
    sock="$work/$1.sock"
    (ulimit -n "$2" && exec "$dse" serve --socket "$sock") > "$work/$1.log" 2>&1 &
    pids="$pids $!"
    pid=$!
    wait_for "$sock"
}

start_router() {  # start_router NAME NOFILE
    sock="$work/$1.sock"
    (ulimit -n "$2" && exec "$dse" fleet serve -n 1 --socket "$sock" --dir "$work/$1.d") \
        > "$work/$1.log" 2>&1 &
    pids="$pids $!"
    pid=$!
    wait_for "$sock"
}

# (i) fd exhaustion: survive, count, recover
exhaust() {  # exhaust NAME SOCK PID
    rm -f "$work/ready" "$work/release"
    python3 "$work/holder.py" hold "$2" 200 "$work/ready" "$work/release" &
    holder=$!
    i=0
    while [ ! -s "$work/ready" ]; do
        i=$((i + 1))
        [ "$i" -gt 300 ] && fail "$1: holder never finished connecting"
        sleep 0.1
    done
    sleep 1
    kill -0 "$3" 2>/dev/null || fail "$1 died with $(cat "$work/ready") connections held"
    touch "$work/release"
    wait "$holder" || fail "$1: the holder failed"
    holder=""
    kill -0 "$3" 2>/dev/null || fail "$1 died after the holder let go"
    errors=$("$dse" client --socket "$2" '{"op":"metrics"}' \
        | grep -o '"dse_accept_errors_total":[0-9]*' | cut -d: -f2 | sort -n | tail -n 1)
    [ "${errors:-0}" -gt 0 ] || fail "$1: dse_accept_errors_total is ${errors:-missing}"
    "$dse" client --socket "$2" '{"op":"stats"}' | grep -q '"ok":true' \
        || fail "$1: no normal stats reply after recovery"
    echo "fd-limits (i): $1 held $(cat "$work/ready") connections under ulimit -n 128," \
        "survived $errors failed accepts"
}

# (iii) short-connection churn leaves threads and fds where they were
count() { ls "/proc/$1/$2" | wc -l; }
churn() {  # churn NAME SOCK PID
    req='{"op":"signature","session":"fd0"}'
    "$dse" client --socket "$2" '{"op":"open","session":"fd0","layer":"idct"}' \
        | grep -q '"ok":true' || fail "$1: cannot open session fd0"
    python3 "$work/holder.py" churn "$2" 100 "$req" || fail "$1: warm-up churn failed"
    sleep 0.5
    tasks0=$(count "$3" task)
    fds0=$(count "$3" fd)
    python3 "$work/holder.py" churn "$2" 10000 "$req" || fail "$1: churn failed"
    i=0
    while :; do
        tasks=$(count "$3" task)
        fds=$(count "$3" fd)
        [ "$tasks" -le $((tasks0 + 2)) ] && [ "$fds" -le $((fds0 + 4)) ] && break
        i=$((i + 1))
        [ "$i" -gt 50 ] && fail "$1 after 10000 connections: $tasks tasks" \
            "(start $tasks0), $fds fds (start $fds0)"
        sleep 0.1
    done
    echo "fd-limits (iii): $1 after 10000 connections: $tasks tasks (start $tasks0)," \
        "$fds fds (start $fds0)"
}

for kind in server router; do
    if want i || want iii; then
        "start_$kind" "$kind" 128
        if want i; then exhaust "$kind" "$sock" "$pid"; fi
        if want iii; then churn "$kind" "$sock" "$pid"; fi
    fi
done

# (ii) 1,100 router connections at once, fds past 1023 included
if want ii; then
    start_router wide 2048
    "$dse" client --socket "$sock" '{"op":"open","session":"fd0","layer":"idct"}' \
        | grep -q '"ok":true' || fail "wide: cannot open session fd0"
    (ulimit -n 2048 && exec python3 "$work/holder.py" burst "$sock" 1100 \
        '{"op":"signature","session":"fd0"}') || fail "wide router dropped connections"
    echo "fd-limits (ii): 1100 concurrent router connections answered under ulimit -n 2048"
fi

for p in $pids; do kill -TERM "$p"; done
for p in $pids; do wait "$p" || fail "a process did not exit cleanly on SIGTERM"; done
pids=""
echo "fd-limits OK:$legs"
