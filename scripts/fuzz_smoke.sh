#!/bin/sh
# Fuzz smoke: runs each fuzz target for its budget, one go test -fuzz call
# per target (-fuzz takes one target), and fails when a target fails or
# when it stopped executing: when its last progress line reports 0 execs/s.
# A final line that closes a sub-second interval (same elapsed second as
# the line before it) is judged by the line before it.
#
# Minimizing a new corpus entry is capped at 1 s (-fuzzminimizetime). Under
# Go's 60 s default, FuzzChromeExport's workers spent most of a 20 s budget
# minimizing kilobyte inputs: the minimizer tries O(n^2) cuts of an n-byte
# input, each a full export at about 0.3 ms, and a worker that is
# minimizing reports no executions, so the smoke printed 0 execs/s from
# about 12 s on and still passed.
set -eu

GO="${GO:-go}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

fuzz() { # package target seconds
	if ! "$GO" test -run '^$' -fuzz "^$2\$" -fuzztime "$3s" -fuzzminimizetime 1s "$1" >"$log" 2>&1; then
		cat "$log"
		exit 1
	fi
	cat "$log"
	awk -v target="$2" '
		/^fuzz: elapsed: .*, execs: [0-9]+ \([0-9]+\/sec\)/ {
			split($0, a, /elapsed: |, execs: | \(|\/sec\)/)
			prevElapsed = lastElapsed; prevRate = lastRate
			lastElapsed = a[2]; lastRate = a[4]; lines++
		}
		END {
			rate = lastRate
			if (lines > 1 && lastElapsed == prevElapsed) rate = prevRate
			if (lines == 0 || rate == 0) {
				printf "fuzz-smoke: %s stopped executing: %s\n", target, (lines ? "its last progress line reports 0 execs/s" : "it printed no progress line") > "/dev/stderr"
				exit 1
			}
		}' "$log"
}

fuzz ./internal/trace FuzzChromeExport 20
fuzz ./internal/campaign FuzzParseManifest 10
fuzz ./internal/campaign FuzzJournalLoad 10
fuzz ./internal/workload FuzzReadTrace 10
fuzz ./internal/sim FuzzEngineOrder 10
fuzz ./internal/system FuzzSummarizeWire 10
