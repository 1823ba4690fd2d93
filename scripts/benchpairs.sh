#!/usr/bin/env bash
# Alternated parent/change pairs of the runtime benchmark: the evidence
# a performance claim owes (ROADMAP ground rules).
#
#   scripts/benchpairs.sh <parent> <workload|all> [pairs] [seed]
#   make benchpairs PARENT=<sha> WORKLOAD=fed_tree PAIRS=10 SEED=1
#   make benchpairs PARENT=<sha> WORKLOAD=all PAIRS=5
#
# <parent> is a commit, checked out into a git worktree under
# .bench_build/ (kept for the next call; `git worktree remove` it when
# done), or a directory already holding the parent's checkout. The
# change is the working tree this is run from. Each pair runs
# `bash bench/run.sh` once in either checkout, the side going first
# alternating, and the last line of each run — the JSON result — is
# parsed. Prints, per end-to-end metric of BENCHMARK.json, each side's
# median [q1 .. q3], the change of the median, how many pairs the
# change won (=n: ties) and the choosing-metrics verdict; exits 1 if any
# run was incorrect or failed an operation. Workload `all` runs the
# pairs of every workload in BENCHMARK.json in turn, one summary each.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,19p' "$0" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

if [ -d "$parent" ]; then
	pdir=$(cd "$parent" && pwd)
else
	sha=$(git rev-parse --verify "$parent^{commit}")
	pdir=$root/.bench_build/parent-${sha:0:12}
	if [ ! -d "$pdir" ]; then
		mkdir -p "$root/.bench_build"
		git worktree add --detach "$pdir" "$sha" >/dev/null
	fi
fi

mkdir -p "$root/.bench_build"

# run <side> <dir> <pair>: one benchmark run, its JSON line tagged and kept.
run() {
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
	case $line in
	'{'*) printf '{"side":"%s","pair":%d,"result":%s}\n' "$1" "$3" "$line" >>"$results" ;;
	*) printf '{"side":"%s","pair":%d,"result":null}\n' "$1" "$3" >>"$results" ;;
	esac
	printf '  pair %d %-6s %s\n' "$3" "$1" "$(printf '%s' "$line" | cut -c1-60)" >&2
}

# pairs_of <workload>: the workload's pairs, then its summary; fails
# if any of its runs did.
pairs_of() {
	workload=$1
	results=$root/.bench_build/pairs-$workload-seed$seed.jsonl
	: >"$results"
	echo "# workload=$workload seed=$seed seconds=$seconds pairs=$pairs parent=$pdir change=$root" >&2
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run parent "$pdir" "$i"
			run change "$root" "$i"
		else
			run change "$root" "$i"
			run parent "$pdir" "$i"
		fi
	done
	python3 - "$results" "$workload" <<'EOF'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
bench = json.load(open("BENCHMARK.json"))
bad = [r for r in runs if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
for r in bad:
    print(f"FAILED RUN: pair {r['pair']} {r['side']}: {r['result']}")
good = {p for p in {r["pair"] for r in runs} if not any(b["pair"] == p for b in bad)}
side = lambda s, m: [r["result"]["metrics"][m]["value"] for r in sorted(runs, key=lambda r: r["pair"])
                     if r["side"] == s and r["pair"] in good]

def spread(v):
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else (v[0],) * 3
    return f"{med:.6g} [{q1:.6g} .. {q3:.6g}]", med, q3 - q1

print(f"{sys.argv[2]}: {len(good)} pairs")
print(f"{'metric':<18}{'better':<8}{'parent median [q1 .. q3]':<42}{'change median [q1 .. q3]':<42}{'change':>8}  {'wins':<10}verdict")
for m in bench["end_to_end"]:
    p, c = side("parent", m["name"]), side("change", m["name"])
    if not p:
        continue
    (ptxt, pmed, piqr), (ctxt, cmed, _) = spread(p), spread(c)
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    ties = sum(1 for a, b in zip(p, c) if a == b)
    gain = sign * (cmed - pmed)
    rel = (cmed - pmed) / pmed if pmed else 0.0
    if wins * 10 >= 9 * len(p) and gain > piqr:
        verdict = "better"
    elif -gain > m["bound"] * abs(pmed):
        verdict = "WORSE than bound"
    elif piqr > m["bound"] * abs(pmed):
        verdict = "unresolved (parent spread > bound)"
    else:
        verdict = "within bound"
    won = f"{wins}/{len(p)}" + (f" ={ties}" if ties else "")
    print(f"{m['name']:<18}{m['better']:<8}{ptxt:<42}{ctxt:<42}{rel:>+8.1%}  {won:<10}{verdict}")
sys.exit(1 if bad else 0)
EOF
}

if [ "$workload" != all ]; then
	pairs_of "$workload"
	exit
fi
status=0
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
	pairs_of "$w" || status=1
done
exit $status
