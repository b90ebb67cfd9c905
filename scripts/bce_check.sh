#!/usr/bin/env bash
# Bounds-check gate for the SpM×V kernel bodies.
#
# Builds internal/core and internal/csr with the compiler's bounds-check
# report (-d=ssa/check_bce/debug=1) and fails if any index check inside a
# kernel inner loop reads a matrix array (RowPtr, ColIdx, Val, UVal, DValues
# or a reslice of them). Inner loops are the `for` statements marked with a
# trailing `// bce:inner` comment; the loop extends to its closing brace. The
# vector accesses x[c], y[c] and local[c] are data-dependent gathers and
# scatters and may keep their checks.
#
# The gate also fails if a body listed in BODIES has lost its marker, so a
# rewrite cannot silently drop out of the check.
#
# Run from anywhere: ./scripts/bce_check.sh (or `make bce`).
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
# Compiler columns count bytes; make bash substrings count bytes too.
export LC_ALL=C
ALLOWED='^(x|y|local)$'

# file:function pairs whose inner loops must stay check-free.
BODIES="
internal/core/kernel.go:multiplyNaiveT
internal/core/kernel.go:multiplyEffectiveT
internal/core/colored.go:colorBlocksT
internal/core/sss.go:MulVec
internal/core/kinds.go:multiplyNaiveKindT
internal/core/kinds.go:multiplyEffectiveKindT
internal/core/kinds.go:colorBlocksKindT
internal/csr/csr.go:mulRange
"

fail=0

# Every listed body must carry at least one marked inner loop.
for entry in $BODIES; do
	file=${entry%%:*}
	fn=${entry##*:}
	found=$(awk -v fn="$fn" '
		$0 ~ "^func (\\([^)]*\\) )?" fn "\\(" { in_fn = 1; next }
		in_fn && /^}/ { in_fn = 0 }
		in_fn && /\/\/ bce:inner/ { n++ }
		END { print n + 0 }' "$file")
	if [ "$found" -eq 0 ]; then
		echo "bce: $file: $fn has no // bce:inner loop" >&2
		fail=1
	fi
done

report=$("$GO" build -gcflags='-d=ssa/check_bce/debug=1' ./internal/core ./internal/csr 2>&1) || {
	echo "$report" >&2
	echo "bce: build failed" >&2
	exit 1
}

files=$(echo "$BODIES" | sed -n 's/:.*//p' | sort -u)
checked=0
for file in $files; do
	# Marked loop line ranges of this file, as "start end" pairs.
	ranges=$(awk '
		/\/\/ bce:inner/ && depth == 0 { start = NR; depth = 0; open = 1 }
		open {
			line = $0
			sub(/\/\/.*/, "", line)
			depth += gsub(/{/, "{", line) - gsub(/}/, "}", line)
			if (depth == 0) { print start, NR; open = 0 }
		}' "$file")
	[ -n "$ranges" ] || continue
	# Checks the compiler kept in this file: "line col".
	hits=$(echo "$report" | sed -n "s|^${file}:\([0-9]*\):\([0-9]*\): Found Is.*|\1 \2|p")
	while read -r start end; do
		checked=$((checked + 1))
		while read -r ln col; do
			[ -n "$ln" ] || continue
			if [ "$ln" -ge "$start" ] && [ "$ln" -le "$end" ]; then
				src=$(sed -n "${ln}p" "$file")
				ident=$(printf '%s' "${src:0:$((col - 1))}" | grep -o '[A-Za-z_][A-Za-z0-9_]*$' || true)
				if ! [[ "$ident" =~ $ALLOWED ]]; then
					echo "bce: $file:$ln:$col: bounds check on '${ident:-?}' inside an inner loop: $(echo "$src" | sed 's/^[[:space:]]*//')" >&2
					fail=1
				fi
			fi
		done <<<"$hits"
	done <<<"$ranges"
done

if [ "$fail" -ne 0 ]; then
	echo "bce: FAIL" >&2
	exit 1
fi
echo "bce: OK ($checked marked inner loops, matrix-array accesses check-free)"
