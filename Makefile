GO ?= go

.PHONY: build test vet pairs verify verify-unreached verify-knobs verify-hostagg verify-hostagg-slo verify-obs verify-faults verify-dse verify-sim verify-microcode verify-packet verify-tree verify-apps goldens-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails when any file needs gofmt, and builds for darwin and vets
# internal/hostagg for windows so the off-Linux files (gso_other.go) compile.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) vet ./internal/hostagg/
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# pairs runs the repo benchmark on one workload at BASE and at the working
# tree, alternating which side goes first, and prints the paired statistics a
# performance claim needs: make pairs WORKLOAD=agg-large BASE=HEAD~1 [N=10] [SECONDS=10]
pairs:
	@tools/pairs.sh $(WORKLOAD) $(BASE) $(N) $(SECONDS)

# verify is the extended gate (tier-1 is `go build ./... && go test ./...`):
# full build + tests, whole-repo vet, then the race suites of the
# concurrency-critical layers (hostagg's single-lock hot path, obs's atomic
# instruments, dse's worker pool, tree's partitioned hierarchy), the
# reachability and config-surface ledgers, the metric documentation check,
# and the CLI-level golden diff. The walk-throughs are Go Example functions,
# so the tests already check their output.
verify: build test vet verify-unreached verify-knobs verify-hostagg verify-hostagg-slo verify-obs verify-faults verify-dse verify-sim verify-microcode verify-packet verify-tree verify-apps goldens-check

# verify-unreached runs every experiment, the benchmark smoke test and the CLI
# tests under coverage and checks that each internal function none of them
# reaches is listed with a reason in testdata/unreached.txt, and that no listed
# function is reached or gone (≈30 s, so outside tier-1).
verify-unreached:
	@tools/unreached.sh

# verify-knobs type-checks the module, tests included, and checks that each
# exported field of an internal/ struct type that no non-test code writes, and
# each …Config/…Params field that non-test code writes only as one constant,
# is listed with a reason in testdata/knobs.txt, and that no listed field is
# gone or written outside tests otherwise (≈25 s, so outside tier-1).
verify-knobs:
	$(GO) run ./tools/knobs

# verify-hostagg races the block table and its UDP shell, races the client's
# and the server loop's tests ten times over at one and two CPUs (their read
# deadlines, retransmit, NACK back-off and idle sweep under scheduling
# variation), then hammers the two
# determinism pins — the livechaos golden (the real block table on
# sim.Engine) and the seeded admission trace replayed twice — twenty times
# over at one to eight CPUs: nothing in them may depend on scheduling or on
# GOMAXPROCS.
verify-hostagg:
	$(GO) test -race ./internal/hostagg/...
	$(GO) test -race -count=10 -cpu 1,2 -run 'Client|AllReduce|Server' ./internal/hostagg/
	$(GO) test -count=20 -cpu 1,2,4,8 -run 'LiveChaos|AdmissionTrace' ./internal/harness/ ./internal/hostagg/

# verify-hostagg-slo is what is left of the real-socket chaos run: the one
# assertion about wall-clock speed (under flood and retxstorm the victim's
# fastest round stays within 90% of its aggressor-free baseline over real
# loopback — behind -live, outside tier-1), and short FuzzHandle,
# FuzzAggTrace and FuzzGROSplit runs (the table's decoder; one contribution
# trace through aggcore.Decide, the table and the PFE aggregator; the UDP_GRO
# control-message parser and splitter in front of the table) over the
# checked-in corpora plus fresh inputs.
verify-hostagg-slo:
	$(GO) test -run TestLiveVictimSLO ./internal/hostagg/ -live
	$(GO) test -fuzz=FuzzHandle -fuzztime=10s -run FuzzHandle ./internal/hostagg/
	$(GO) test -fuzz=FuzzAggTrace -fuzztime=10s -run FuzzAggTrace ./internal/trioml/
	$(GO) test -fuzz=FuzzGROSplit -fuzztime=10s -run FuzzGROSplit ./internal/hostagg/

# verify-faults races the fault-injection plan and mltrain, whose Worker the
# chaos rig runs under that plan.
verify-faults:
	$(GO) test -race ./internal/faults/... ./internal/mltrain/...

# goldens-check runs every experiment through the CLI at seed 1, quick mode,
# and diffs each capture under internal/harness/testdata/ —
# file=experiments: the pairs golden_test.go pins, plus the training figures
# and the tree sweep, which are too slow to run a second time inside tier-1.
GOLDENS = fig14_fig15=fig14,fig15 rigs=fig16,microcode,advanced,ablation,progdse \
	chaos=chaos livechaos=livechaos netrpc=netrpc infnet=infnet tree=treechaos \
	train=table1,fig12,fig13 treesweep=tree
goldens-check:
	@mkdir -p .smoke-bin
	@$(GO) build -o .smoke-bin/triobench ./cmd/triobench
	@set -e; for g in $(GOLDENS); do \
		./.smoke-bin/triobench -exp $${g#*=} -seed 1 -quiet | diff -u internal/harness/testdata/golden_$${g%%=*}_seed1.txt -; \
		echo "goldens-check: $${g#*=} matches golden_$${g%%=*}_seed1.txt"; \
	done
	@rm -rf .smoke-bin

# verify-sim races the partitioned simulation core (cluster barrier hammer
# included), the event queue's twin runs against the index-heap oracle (the
# mixed script and the tie script that reaches every run path; fired
# sequences and the whole Metrics struct equal, five times over), and the
# cross-partition determinism tests: the tree sweep and treechaos at P in
# {1,2,5} must render byte-identically.
verify-sim:
	$(GO) test -race -run 'TestCluster' ./internal/sim/
	$(GO) test -race -count=5 -run 'TestEngineTwin' ./internal/sim/
	$(GO) test -race -run 'TestTree.*CrossPartitionDeterminism|TestLinkBetween' ./internal/harness/ ./internal/netsim/

# verify-tree races the multi-rack hierarchical aggregation package (composed
# straggler semantics, gen-restart recovery, rack failure) and the harness's
# tree determinism pins: the tree sweep and treechaos tables must render
# byte-identically at any partition count, and treechaos must match its
# golden capture. The tree's allocations-per-frame and build-cost-per-worker
# ceilings, the PFE's completion-chunk ceiling and its multicast pin (a
# result to 200 ports allocates what one to 4 ports does) rerun at fixed
# GOMAXPROCS and GOGC, five times at -cpu 1,2, so a ratcheted ceiling that is
# flaky fails here.
verify-tree:
	$(GO) test -race ./internal/tree/
	$(GO) test -race -run 'TestTree|TestGoldenTreeChaos' ./internal/harness/
	GOMAXPROCS=1 GOGC=100 $(GO) test -count=5 -cpu 1,2 -run 'TestTreeAllocsPerPacket|TestTreeBuildAllocsPerWorker|TestInFlightThreadsShareOneContext|TestMulticastAllocsIndependentOfPorts' ./internal/tree/ ./internal/trio/pfe/

# verify-dse races the sweep executor and the parallel-vs-serial
# determinism tests in the harness.
verify-dse:
	$(GO) test -race ./internal/dse/...
	$(GO) test -race -run 'TestSweepsParallelMatchSerial|TestSecondSeedDeterminism' ./internal/harness/

# verify-obs races the registry/trace instruments and fails if any exported
# metric name is missing from OBSERVABILITY.md.
verify-obs:
	$(GO) test -race ./internal/obs/...
	$(GO) run ./tools/obscheck

# verify-microcode races the v2 compile/verify/dispatch pipeline — its
# package tests include the counted-loop kernel and fused-move differential
# tests (every unroll, budget, faulting lane and trace case, overlapping
# lmem64 copies and reg-op-imm cascades, against the reference interpreter)
# — then the shared-memory twins under every XTXN a thread makes (each
# single-request op and transaction, and the vector and paced kernels,
# against the per-word reference loop, faults and obs on and off), then the
# packet path around them (the pfe zero-allocation gate and tail-clipping
# regression, mcagg compiled-vs-interpreter at every unroll), runs the
# dispatch benchmark ten iterations per case so it cannot rot unseen, and
# replays the FuzzAssemble seed+regression corpus before fuzzing from it for
# 10 s (parse -> compile -> twin-engine dispatch must never panic and must
# stay bit-identical).
verify-microcode:
	$(GO) test -race ./internal/microcode/
	$(GO) test -race -run 'Twin|WordLoop|PageWalk|Paced' ./internal/trio/smem/
	$(GO) test -race -run 'TestMicrocodeAppZeroAlloc|TestMicrocodeNegativeTailOffset' ./internal/trio/pfe/
	$(GO) test -race -run 'TestMCAggCompiledMatchesInterpreter|TestMCAggUnrollVariantsAgree' ./internal/trioml/
	$(GO) test -run '^$$' -bench MicrocodeDispatch -benchtime 10x ./internal/trioml/
	$(GO) test -run FuzzAssemble ./internal/microcode/
	$(GO) test -fuzz=FuzzAssemble -fuzztime=10s -run FuzzAssemble ./internal/microcode/

# verify-packet fuzzes the wire codec for 10 s each from the checked-in seeds
# (BuildTrioML/BuildUDP/netrpc frames): DecodeInto never panics, an accepted
# Trio-ML frame re-marshals to its own bytes, the in-place UDP verification
# agrees with copy-zero-recompute, the word-folding Checksum equals the
# byte-pair loop on any bytes at any alignment, the NetRPC header and the
# retry-after NACK body survive decode -> encode -> decode, the bitfield
# word window reads and writes what the bit loops do at any offset and width,
# the fixed-offset Trio-ML header, job-record and block-record codecs
# decode and re-encode any bytes as their by-name bitfield layouts do, the
# two-lanes-per-word lane add and decode equal a lane-at-a-time int32 loop on
# any bytes, and the shared memory's vector add around that kernel equals a
# lane-at-a-time add of any big-endian lanes at any address near a page end.
verify-packet:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run FuzzDecode ./internal/packet/
	$(GO) test -fuzz=FuzzLanes -fuzztime=10s -run FuzzLanes ./internal/packet/
	$(GO) test -fuzz=FuzzChecksum -fuzztime=10s -run FuzzChecksum ./internal/packet/
	$(GO) test -fuzz=FuzzNetRPCHeader -fuzztime=10s -run FuzzNetRPCHeader ./internal/packet/
	$(GO) test -fuzz=FuzzRetryAfter -fuzztime=10s -run FuzzRetryAfter ./internal/packet/
	$(GO) test -fuzz=FuzzLayout -fuzztime=10s -run FuzzLayout ./internal/bitfield/
	$(GO) test -fuzz=FuzzTrioMLCodec -fuzztime=10s -run FuzzTrioMLCodec ./internal/trioml/
	$(GO) test -fuzz=FuzzAddVector32Lanes -fuzztime=10s -run FuzzAddVector32Lanes ./internal/trio/smem/

# verify-apps races both in-network application packages (netrpc's concurrent
# cache-service paths, infnet's classifier) and the harness's apps pins: the
# seed-1 golden tables, the two-run seed determinism check, and the
# per-experiment hard checks (instruction-exact cost conformance,
# reference-model bit-identity, cache-poisoning rejection).
verify-apps:
	$(GO) test -race ./internal/apps/...
	$(GO) test -race -run 'TestGoldenAppsDeterminism|TestAppsSeedDeterminism|TestNetRPCHardChecks|TestInfnetHardChecks' ./internal/harness/
