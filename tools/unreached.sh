#!/bin/sh
# unreached.sh: list every function under internal/ that no experiment, the
# benchmark's smoke test or the CLI tests reach — 0.0% in
#   go test -coverpkg=./internal/... ./internal/harness ./benchmark ./cmd/triobench
# — keyed "path/file.go Func" (no line number, so edits elsewhere do not churn
# the list), and compare it with testdata/unreached.txt, whose lines read
# "path/file.go Func<TAB>reason". It fails naming every unreached function the
# ledger lacks, every ledger line whose function is reached or gone (delete
# it), and every reason outside the allowed forms:
#   kept for item N      a ROADMAP item that will use it
#   real-socket path     hostagg's UDP server/client, run by the hostagg-* workloads
#   fault path: TestX    an error, edge or fault branch only TestX reaches
#   example: ExampleX    run by ExampleX, a checked Go example
#   cmd: name            run by cmd/name or tools/name
#   test oracle          a reference implementation tests compare against
#   observer: TestX      TestX, a test of reached code, calls it to build or read
#   debug/printing       String, Dump and what only they call
# Keys compare as a multiset: one file may hold several Strings.
set -eu
ledger=testdata/unreached.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export LC_ALL=C
mod=$(go list -m)/
if ! go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/cover.out" \
	./internal/harness ./benchmark ./cmd/triobench >"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi
go tool cover -func="$tmp/cover.out" | awk -v mod="$mod" '
	$NF == "0.0%" { f = $1; sub(mod, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' | sort >"$tmp/got"
grep -v '^#' "$ledger" | cut -f1 | sort >"$tmp/want"
fail=0
comm -23 "$tmp/got" "$tmp/want" >"$tmp/unlisted"
comm -13 "$tmp/got" "$tmp/want" >"$tmp/stale"
if [ -s "$tmp/unlisted" ]; then
	echo "unreached.sh: unreached, with no line in $ledger (delete the code, or add a line and a reason):"
	sed 's/^/  /' "$tmp/unlisted"
	fail=1
fi
if [ -s "$tmp/stale" ]; then
	echo "unreached.sh: listed in $ledger but reached or gone (delete the line):"
	sed 's/^/  /' "$tmp/stale"
	fail=1
fi
awk -F '\t' '
	/^#/ { next }
	NF != 2 { print "  line " NR ": want \"path/file.go Func<TAB>reason\": " $0; next }
	$2 ~ /^(kept for item [0-9]+(\([a-z]\))?|real-socket path|test oracle|debug\/printing)$/ { next }
	$2 ~ /^(fault path|observer): Test[A-Za-z0-9_]+$/ { print "test", substr($2, index($2, "Test")); next }
	$2 ~ /^example: Example[A-Za-z0-9_]*$/ { print "test", substr($2, 10); next }
	$2 ~ /^cmd: [a-z0-9]+$/ { print "cmd", substr($2, 6); next }
	{ print "  line " NR ": reason not allowed: " $2 }' "$ledger" | sort -u >"$tmp/refs"
while read -r kind name; do
	case $kind in
	test) grep -rqE "^func $name\(" --include='*_test.go' . || echo "  no test named $name" ;;
	cmd) [ -d "cmd/$name" ] || [ -d "tools/$name" ] || echo "  no command $name" ;;
	*) echo "  $kind $name" ;;
	esac
done <"$tmp/refs" >"$tmp/badrefs"
if [ -s "$tmp/badrefs" ]; then
	echo "unreached.sh: bad reasons in $ledger:"
	cat "$tmp/badrefs"
	fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "unreached.sh: $(wc -l <"$tmp/got") functions at 0%, each listed with a reason in $ledger"
