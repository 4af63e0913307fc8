#!/bin/sh
# Reachability: list the non-test functions that no command or example
# ever runs. The four commands (obfsim, obfuslint, replay, tracegen) and
# the five examples are built with coverage over every package of the
# module, then driven through the product paths:
#
#   - obfsim -exp all, backends, leakage and openloop;
#   - a traced run with metrics, an attribution report and a metrics time
#     series, and a traced run with transient faults;
#   - an 8-cell campaign over four schemes, with and without faults;
#   - a tracegen -> replay round trip over every scheme;
#   - obfuslint over the module (./...);
#   - every example.
#
# It prints each function that never ran (file:line, name) and their
# count, then each package's share of statements reached ("not linked"
# when no command or example imports it), so a package with no reached
# code stands out beside its DESIGN.md §2 row. bench/ is a separate module
# and is not listed. Uses only the Go
# toolchain; everything it writes lives under one mktemp -d directory.
#
# Usage: sh scripts/reach.sh   (or make reach)
set -eu

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/bin" "$work/cov" "$work/run"
for p in obfsim obfuslint replay tracegen; do
    go build -cover -coverpkg=./... -o "$work/bin/$p" "./cmd/$p"
done
for p in nvmlifetime oramcompare quickstart secretstore securechannel; do
    go build -cover -coverpkg=./... -o "$work/bin/$p" "./examples/$p"
done

GOCOVERDIR="$work/cov"
export GOCOVERDIR
bin="$work/bin"
run="$work/run"
req=1000

for e in all backends leakage openloop; do
    "$bin/obfsim" -exp "$e" -requests "$req" > /dev/null 2>&1
done
"$bin/obfsim" -exp none -requests "$req" -metrics -metrics-out "$run/metrics.json" \
    -trace-out "$run/trace.json" -attrib-out "$run/attrib.json" \
    -sample-every 5 -sample-out "$run/samples.csv" > /dev/null 2>&1
"$bin/obfsim" -exp none -requests "$req" -trace-faults 0.01 \
    -trace-out "$run/faults.json" > /dev/null 2>&1

cat > "$run/manifest.json" <<'EOF'
{
  "name": "reach",
  "requests": 1000,
  "schemes": ["unprotected", "encrypt-only", "obfusmem", "obfusmem-auth"],
  "workloads": ["milc"],
  "faultRates": [0, 0.001],
  "seeds": [1]
}
EOF
"$bin/obfsim" -campaign "$run/manifest.json" -campaign-out "$run/campaign" > /dev/null 2>&1

"$bin/tracegen" -bench milc -n "$req" > "$run/milc.csv" 2> /dev/null
"$bin/replay" -trace "$run/milc.csv" -protection all > /dev/null 2>&1

"$bin/obfuslint" ./... > /dev/null 2>&1

for p in nvmlifetime oramcompare quickstart secretstore securechannel; do
    "$bin/$p" > /dev/null 2>&1
done

go tool covdata func -i="$work/cov" | awk '
    $NF == "0.0%" && $1 !~ /^obfusmem\/bench\// { print; n++ }
    END { printf "never reached: %d functions\n", n }'

go tool covdata percent -i="$work/cov" > "$work/percent"
echo "statements reached, per package:"
go list ./... | awk -v pct="$work/percent" '
    BEGIN { while ((getline l < pct) > 0) { split(l, f); share[f[1]] = f[3] } }
    { printf "  %-46s %s\n", $1, ($1 in share) ? share[$1] : "not linked" }'
