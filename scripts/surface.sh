#!/usr/bin/env bash
# Prints the size of the code and configuration surface, the numbers
# every change reports in CHANGES.md and ROADMAP.md:
#
#   bash scripts/surface.sh        (or: make surface)
#
# - non-test Go lines outside bench/ (tracked .go files, *_test.go
#   excluded; untracked new files count once they are added);
# - DESIGN.md lines;
# - the flags of each cmd/ binary, counted from its -h output, and
#   their total. A binary with roles (ismd: flat, leaf, relay) prints
#   each role's count and counts the distinct flag names across its
#   roles toward the total.
# The binaries are built into a temporary directory that is removed on
# exit.
#
# It fails first if a tracked (or staged) file is over 1 MB or is an
# ELF binary: build output that `git add -A` picked up.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

bad=0
while IFS= read -r -d '' f; do
	[ -f "$f" ] || continue
	if [ "$(wc -c <"$f")" -gt 1048576 ]; then
		echo "surface: $f is tracked and over 1 MB" >&2
		bad=1
	fi
	if [ "$(head -c 4 "$f")" = $'\x7fELF' ]; then
		echo "surface: $f is tracked and an ELF binary" >&2
		bad=1
	fi
done < <(git ls-files -z)
if [ "$bad" -ne 0 ]; then
	exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

loc=$( { git ls-files -co --exclude-standard -- '*.go' | grep -v '_test\.go$' | grep -v '^bench/' || true; } |
	while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l)
printf '%-28s %6d\n' "go non-test LOC (not bench/)" "$loc"
printf '%-28s %6d\n' "DESIGN.md lines" "$(wc -l <DESIGN.md)"

total=0
for dir in cmd/*/; do
	name=$(basename "$dir")
	go build -o "$tmp/$name" "./$dir"
	roles=("")
	if [ "$name" = ismd ]; then
		roles=("" leaf relay)
	fi
	: >"$tmp/flags"
	for role in "${roles[@]}"; do
		# -h prints the usage and exits 0 (flag.ExitOnError); each flag
		# is one line indented by two spaces and starting with '-'.
		{ "$tmp/$name" $role -h 2>&1 || true; } | { grep '^  -' || true; } |
			awk '{print $1}' >"$tmp/role"
		if [ ${#roles[@]} -gt 1 ]; then
			printf '%-28s %6d\n' "flags: $name ${role:-(flat)}" "$(wc -l <"$tmp/role")"
		fi
		cat "$tmp/role" >>"$tmp/flags"
	done
	n=$(sort -u "$tmp/flags" | wc -l)
	printf '%-28s %6d\n' "flags: $name" "$n"
	total=$((total + n))
done
printf '%-28s %6d\n' "flags: total" "$total"
