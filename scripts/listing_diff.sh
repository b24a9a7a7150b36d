#!/bin/sh
# listing_diff.sh REV — which compiled functions of ./internal/... differ
# between commit REV and the working tree.
#
# Both trees are built with the compiler's -S listing, once with
# -pgo=off and once with -pgo=cmd/mmureport/default.pgo (each tree's own
# profile, the one its benchmark binary builds with). Every text
# symbol's listing, with the (file:line) positions stripped, is
# compared, and the symbols that differ are printed, one a line:
#
#   changed SYM   the code differs
#   removed SYM   only REV has it
#   added SYM     only the working tree has it
#
# under a "-pgo=..." header for each build. Positions are stripped
# because moving a line moves every position below it without changing
# the code; what remains (instructions, relocations, frame sizes) is
# the code itself. PGO keys a hot call site by its line offset within
# the outer function, so an edit that only moves lines can still change
# a profiled build; this is how to see it.
#
# REV is exported with git archive into a temporary directory, which is
# removed on exit; nothing is written into the repository or its .git.
# Exits 0 whether or not anything differs, 2 on a bad command line, 1
# when a build fails.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: sh scripts/listing_diff.sh REV" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "listing_diff: $1 is not a commit" >&2
	exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"

# listing DIR PGO OUT: one line per text symbol of DIR's ./internal/...
# under -pgo=PGO, "SYM<tab>" then its position-stripped listing with
# the line breaks turned into \x1f; sorted and deduplicated (a generic
# instantiation appears once per package that uses it).
listing() {
	if ! (cd "$1" && GOFLAGS= go build -pgo="$2" -gcflags='mmutricks/...=-S' ./internal/... > "$tmp/raw" 2>&1); then
		tail -40 "$tmp/raw" >&2
		echo "listing_diff: the build of $1 with -pgo=$2 failed" >&2
		exit 1
	fi
	awk '
		/^[^\t#]/ {
			if (sym != "") print sym "\t" body
			sym = ""
			if ($0 ~ / STEXT/) { sym = $1; body = $0 }
			next
		}
		/^\t/ && sym != "" {
			sub(/ \([^)]*:[0-9]+\)/, "")
			body = body "\037" $0
		}
		END { if (sym != "") print sym "\t" body }
	' "$tmp/raw" | LC_ALL=C sort -u > "$3"
}

for pgo in off cmd/mmureport/default.pgo; do
	listing "$tmp/rev" "$pgo" "$tmp/a"
	listing . "$pgo" "$tmp/b"
	cut -f1 "$tmp/a" | LC_ALL=C sort -u > "$tmp/a.syms"
	cut -f1 "$tmp/b" | LC_ALL=C sort -u > "$tmp/b.syms"
	echo "-pgo=$pgo:"
	LC_ALL=C comm -3 "$tmp/a" "$tmp/b" | sed 's/^\t//' | cut -f1 | LC_ALL=C sort -u |
		while IFS= read -r sym; do
			if ! grep -qxF "$sym" "$tmp/b.syms"; then
				echo "removed $sym"
			elif ! grep -qxF "$sym" "$tmp/a.syms"; then
				echo "added $sym"
			else
				echo "changed $sym"
			fi
		done
done
