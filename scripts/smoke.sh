#!/usr/bin/env bash
# Smoke-runs what `go test` never starts, because it has no test files: the
# five examples, and wavec, waverun and wavesim (its -metrics table and both
# trace exports) on a small wsl program. Any non-zero exit fails the script,
# which then prints the failing command's output. Run it from the repository
# root (`make smoke`).
set -euo pipefail

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# run NAME CMD...: runs CMD with its output in the scratch directory, and on
# failure prints that output and stops.
run() {
	local name=$1
	shift
	if ! "$@" >"$dir/$name.log" 2>&1; then
		echo "smoke: $name failed: $*" >&2
		cat "$dir/$name.log" >&2
		exit 1
	fi
	echo "smoke: $name ok"
}

mkdir -p "$dir/bin"
"$GO" build -o "$dir/bin/" ./cmd/wavec ./cmd/waverun ./cmd/wavesim ./examples/...

for ex in examples/*/; do
	ex=$(basename "$ex")
	run "$ex" "$dir/bin/$ex"
done

cat >"$dir/smoke.wsl" <<'EOF'
global a[16];

func main() {
	var s = 0;
	for var i = 0; i < 16; i = i + 1 {
		if i % 3 == 0 {
			a[i] = i * i;
		} else {
			a[i] = i + 1;
		}
	}
	for var i = 0; i < 16; i = i + 1 {
		s = s + a[i];
	}
	return s;
}
EOF

run wavec-stats "$dir/bin/wavec" -stats "$dir/smoke.wsl"
run wavec-select-dot "$dir/bin/wavec" -select -dot main "$dir/smoke.wsl"
run waverun "$dir/bin/waverun" "$dir/smoke.wsl"
run wavesim-baseline-metrics "$dir/bin/wavesim" -baseline -metrics "$dir/smoke.wsl"
run wavesim-spec-trace "$dir/bin/wavesim" -mem spec -trace "$dir/smoke.jsonl" -trace-chrome "$dir/smoke.chrome.json" "$dir/smoke.wsl"
run trace-files test -s "$dir/smoke.jsonl" -a -s "$dir/smoke.chrome.json"
