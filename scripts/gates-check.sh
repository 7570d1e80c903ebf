#!/usr/bin/env bash
# gates-check.sh fails when a test-selection pattern in the Makefile or the
# CI workflow selects nothing in its package. `go test -run P` passes
# silently when P matches no test, so a renamed or deleted test would turn
# its gate into a no-op without anyone noticing.
#
# For every `go test` / `$(GO) test` command line, each -run, -bench and
# -fuzz pattern is resolved with `go test -list '<pattern>' <pkg>` in every
# package the line names; a pattern listing nothing fails the check.
# Patterns that deliberately select nothing ('^$', used to skip tests
# beside -bench or -fuzz) are skipped. Makefile `$$` escapes are undone
# before the pattern is used.
#
# Usage: bash scripts/gates-check.sh   (or `make gates-check`)
set -euo pipefail
set -f # command lines are split into words below; never glob them

cd "$(dirname "$0")/.."
files=(Makefile .github/workflows/ci.yml)

flag_re="-(run|bench|fuzz)[ =]('([^']*)'|([^ ']+))"
checked=0
failed=0
for f in "${files[@]}"; do
	lineno=0
	while IFS= read -r line; do
		lineno=$((lineno + 1))
		[[ "$line" =~ ^[[:space:]]*# ]] && continue
		[[ "$line" =~ (\$\(GO\)|go)\ test\  ]] || continue
		pkgs=()
		for word in $line; do
			[[ "$word" == ./* ]] && pkgs+=("$word")
		done
		[ ${#pkgs[@]} -gt 0 ] || continue
		rest="$line"
		while [[ "$rest" =~ $flag_re ]]; do
			rest="${rest#*"${BASH_REMATCH[0]}"}"
			pat="${BASH_REMATCH[3]}${BASH_REMATCH[4]}"
			pat="${pat//\$\$/\$}"
			[ "$pat" = '^$' ] && continue
			for pkg in "${pkgs[@]}"; do
				checked=$((checked + 1))
				n=$(go test -list "$pat" "$pkg" | grep -cv -e '^ok ' -e '^? ' || true)
				if [ "$n" -eq 0 ]; then
					echo "gates-check: $f:$lineno: -${BASH_REMATCH[1]} '$pat' selects nothing in $pkg"
					failed=$((failed + 1))
				fi
			done
		done
	done <"$f"
done
echo "gates-check: $checked pattern/package pairs checked, $failed empty"
[ "$failed" -eq 0 ]
