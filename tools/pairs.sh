#!/bin/sh
# pairs.sh WORKLOAD BASE [N] [SECONDS]: build ./benchmark at git ref BASE (a
# temporary export of that commit) and at the working tree, run them
# alternately, swapping which goes first each pair, and print per end-to-end
# metric (and for the failed-operation count) both sides' quartiles and
# medians, the change's wins, and whether the virt_digests agree.
set -eu
w=$1 base=$2 n=${3:-10} secs=${4:-10}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench.base" ./benchmark)
go build -o "$tmp/bench.change" ./benchmark
run() { # side pair: one row per end-to-end metric (those report n= runs) and one for the digest
	"$tmp/bench.$1" -workload "$w" -seconds "$secs" -out "$tmp/out.$1" | awk -v s="$1" -v p="$2" '
		/virt_digest/ { print "virt_digest", s, p, $NF }
		/operations attempted/ { print "failed_ops", s, p, $(NF - 1) }
		/ n=[0-9]+ spread=/ { print $1, s, p, $2 }' >>"$tmp/rows"
}
for i in $(seq "$n"); do
	if [ $((i % 2)) -eq 1 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done
lower="$(tr -d ' ",' <BENCHMARK.json | awk -F: '$1 == "name" { m = $2 } $1 == "better" && $2 == "lower" { printf " %s ", m }') failed_ops "
echo "$w: $n alternating pairs of $secs s, $base vs working tree; q1 median q3, ratio of medians"
sort -k1,1 -k2,2 -k4,4g "$tmp/rows" | awk -v n="$n" -v lower="$lower" '
	function q(a, p) { return a[int(n * p + 0.999999)] }
	function med(a) { return (a[int((n + 1) / 2)] + a[int(n / 2) + 1]) / 2 }
	function flush(  j, wins) {
		if (m == "virt_digest") { print m, (nd == 1 ? "equal" : "DIFFER") digests; return }
		for (j = 1; j <= n; j++) wins += index(lower, " " m " ") ? c[j] < b[j] : c[j] > b[j]
		printf "%-17s base %11.6g %11.6g %11.6g  change %11.6g %11.6g %11.6g  x%.3f  wins %d/%d\n", m,
			q(B, .25), med(B), q(B, .75), q(C, .25), med(C), q(C, .75), med(B) ? med(C) / med(B) : 1, wins, n
	}
	$1 != m { if (m != "") flush(); m = $1; nb = nc = nd = 0; digests = "" }
	m == "virt_digest" { if (index(digests, $4) == 0) { nd++; digests = digests " " $4 }; next }
	$2 == "base" { B[++nb] = b[$3] = $4 } $2 == "change" { C[++nc] = c[$3] = $4 }
	END { flush() }'
