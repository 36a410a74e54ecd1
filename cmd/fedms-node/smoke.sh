#!/usr/bin/env bash
# Multi-process smoke of fedms-node's separate roles (`make node-smoke`):
# build the binary, start three `-role ps` processes on 127.0.0.1:0 and
# read the address each prints, then start three `-role client`
# processes against them, all under a shared -key with -connect-token
# admission. It fails unless every process exits 0 within BOUND
# seconds, and kills every child it started on the way out.
#
#   bash cmd/fedms-node/smoke.sh        # from the repository root
set -euo pipefail

BOUND=${BOUND:-90}
GO=${GO:-go}
dir=$(mktemp -d)
pids=()
names=()
cleanup() {
	for p in "${pids[@]}"; do
		kill "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT

"$GO" build -o "$dir/fedms-node" ./cmd/fedms-node

# Every process must share the federation flags and the seed.
fed=(-clients 3 -servers 3 -byzantine 1 -attack noise -rounds 3 -samples 600
	-seed 5 -key node-smoke -connect-token -timeout 30s)

start() { # name, then the process's own flags
	local name=$1
	shift
	"$dir/fedms-node" "$@" "${fed[@]}" >"$dir/$name.log" 2>&1 &
	pids+=($!)
	names+=("$name")
}

dump() {
	for n in "${names[@]}"; do
		echo "--- $n"
		cat "$dir/$n.log"
	done
}

for i in 0 1 2; do
	start "ps$i" -role ps -id "$i" -listen 127.0.0.1:0
done
addrs=()
for i in 0 1 2; do
	addr=
	for _ in $(seq 100); do
		addr=$(sed -n 's/^fedms-node: PS [0-9]* (.*) listening on //p' "$dir/ps$i.log")
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "node-smoke: ps$i printed no listen address"
		dump
		exit 1
	fi
	addrs+=("$addr")
done
peers=$(
	IFS=,
	echo "${addrs[*]}"
)
for k in 0 1 2; do
	start "c$k" -role client -id "$k" -peers "$peers"
done

deadline=$((SECONDS + BOUND))
failed=0
for idx in "${!pids[@]}"; do
	p=${pids[$idx]}
	while kill -0 "$p" 2>/dev/null; do
		if ((SECONDS >= deadline)); then
			echo "node-smoke: ${names[$idx]} still running after ${BOUND}s"
			dump
			exit 1
		fi
		sleep 0.2
	done
	if ! wait "$p"; then
		echo "node-smoke: ${names[$idx]} exited non-zero"
		failed=1
	fi
done
if ((failed)); then
	dump
	exit 1
fi
echo "node-smoke: 3 PS and 3 client processes exited 0"
