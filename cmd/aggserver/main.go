// Command aggserver runs the host-side Trio-ML aggregation server: the same
// block/record/straggler protocol as the in-network version, served over a
// real UDP socket (see internal/hostagg).
//
// Usage:
//
//	aggserver [-listen :12000] [-workers 6] [-timeout 10ms] [-stats 5s]
//	          [-metrics-addr :9100]
//	          [-max-open-blocks 0] [-tenant-quota 1=open:64,pps:5000,bytes:1048576,weight:4]
//	          [-job-tenant 2=1] [-retry-after 20ms]
//
// The server is one loop: one socket read by one goroutine, which also runs
// the aging sweep.
//
// Multi-tenant admission control (DESIGN.md §10): -max-open-blocks bounds
// the server's open blocks and arms the overload ladder; -tenant-quota
// (repeatable) sets one tenant's quotas as "<id>=k:v,..." with keys open
// (max open blocks), pps (token-bucket packets/sec), burst (bucket depth),
// bytes (max gradient bytes in flight), and weight (fair-share weight);
// -job-tenant (repeatable) maps a job onto a tenant ("<job>=<tenant>");
// -retry-after sets the back-off suggested in NACKs.
//
// -metrics-addr (off by default) serves Prometheus text exposition at
// /metrics and expvar JSON at /debug/vars, including the server-wide
// counters and per-tenant admission series; see
// OBSERVABILITY.md for the full reference.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/obs"
)

// tenantQuotaFlags collects repeatable -tenant-quota values of the form
// "<id>=open:64,pps:5000,burst:64,bytes:1048576,weight:4" (any key subset).
type tenantQuotaFlags struct {
	quotas map[uint8]hostagg.TenantQuota
}

func (f *tenantQuotaFlags) String() string { return fmt.Sprintf("%v", f.quotas) }

func (f *tenantQuotaFlags) Set(v string) error {
	idStr, spec, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want <tenant>=k:v,..., got %q", v)
	}
	id, err := strconv.ParseUint(strings.TrimSpace(idStr), 10, 8)
	if err != nil {
		return fmt.Errorf("tenant id %q: %w", idStr, err)
	}
	var q hostagg.TenantQuota
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, ":")
		if !ok {
			return fmt.Errorf("want k:v, got %q", kv)
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("value %q: %w", kv, err)
		}
		switch strings.TrimSpace(key) {
		case "open":
			q.MaxOpenBlocks = int(n)
		case "pps":
			q.PacketsPerSec = n
		case "burst":
			q.PacketBurst = int(n)
		case "bytes":
			q.MaxBytesInFlight = int64(n)
		case "weight":
			q.Weight = int(n)
		default:
			return fmt.Errorf("unknown quota key %q (want open/pps/burst/bytes/weight)", key)
		}
	}
	if f.quotas == nil {
		f.quotas = make(map[uint8]hostagg.TenantQuota)
	}
	f.quotas[uint8(id)] = q
	return nil
}

// jobTenantFlags collects repeatable -job-tenant values ("<job>=<tenant>").
type jobTenantFlags struct {
	jobs map[uint8]uint8
}

func (f *jobTenantFlags) String() string { return fmt.Sprintf("%v", f.jobs) }

func (f *jobTenantFlags) Set(v string) error {
	jobStr, tnStr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want <job>=<tenant>, got %q", v)
	}
	job, err := strconv.ParseUint(strings.TrimSpace(jobStr), 10, 8)
	if err != nil {
		return fmt.Errorf("job id %q: %w", jobStr, err)
	}
	tn, err := strconv.ParseUint(strings.TrimSpace(tnStr), 10, 8)
	if err != nil {
		return fmt.Errorf("tenant id %q: %w", tnStr, err)
	}
	if f.jobs == nil {
		f.jobs = make(map[uint8]uint8)
	}
	f.jobs[uint8(job)] = uint8(tn)
	return nil
}

func main() {
	var (
		listen     = flag.String("listen", ":12000", "UDP listen address")
		workers    = flag.Int("workers", 6, "number of workers per job")
		timeout    = flag.Duration("timeout", 10*time.Millisecond, "straggler timeout (0 disables)")
		statsInt   = flag.Duration("stats", 10*time.Second, "stats logging interval (0 disables)")
		metrics    = flag.String("metrics-addr", "", "HTTP address for /metrics and /debug/vars (empty disables)")
		maxOpen    = flag.Int("max-open-blocks", 0, "global open-block bound arming the overload ladder (0 = unlimited)")
		maxPerJob  = flag.Int("max-blocks-per-job", 0, "open-block bound per job (0 = unlimited)")
		jobIdle    = flag.Duration("job-idle-timeout", 0, "evict jobs idle this long (0 disables; requires -timeout > 0)")
		replayWin  = flag.Int("replay-window", 0, "served results retained for retransmit replay (0 disables)")
		retryAfter = flag.Duration("retry-after", 0, "back-off suggested in retry-after NACKs (0 = 20ms default)")
	)
	var tenantQuotas tenantQuotaFlags
	var jobTenants jobTenantFlags
	flag.Var(&tenantQuotas, "tenant-quota", "per-tenant quotas: <id>=open:N,pps:N,burst:N,bytes:N,weight:N (repeatable)")
	flag.Var(&jobTenants, "job-tenant", "map a job onto a tenant: <job>=<tenant> (repeatable)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: *listen, NumWorkers: *workers, Timeout: *timeout, Logger: log,
		MaxOpenBlocks: *maxOpen, MaxBlocksPerJob: *maxPerJob,
		JobIdleTimeout: *jobIdle, ReplayWindow: *replayWin, RetryAfter: *retryAfter,
		TenantQuotas: tenantQuotas.quotas, JobTenants: jobTenants.jobs,
	})
	if err != nil {
		log.Error("start", "err", err)
		os.Exit(1)
	}
	log.Info("aggserver listening", "addr", srv.Addr(), "workers", *workers, "timeout", *timeout)

	if *metrics != "" {
		reg := obs.NewRegistry()
		srv.RegisterObs(reg)
		reg.PublishExpvar("triogo")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Error("metrics listen", "err", err)
			os.Exit(1)
		}
		log.Info("metrics serving", "addr", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Error("metrics serve", "err", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *statsInt > 0 {
		go func() {
			for range time.Tick(*statsInt) {
				st := srv.Stats()
				log.Info("stats", "packets", st.Packets, "completed", st.Completed,
					"degraded", st.Degraded, "duplicates", st.Duplicates,
					"stale", st.StaleDrops, "bad", st.BadPackets, "malformed", st.Malformed,
					"restarts", st.GenRestarts, "mismatch", st.GradMismatch,
					"pending", srv.Pending(), "ladder", st.OverloadState,
					"shed", st.Shed, "quotaShed", st.QuotaShed, "rateShed", st.RateShed,
					"fairEvictions", st.FairEvictions, "nacks", st.NacksSent)
				for _, ts := range srv.TenantStats() {
					if ts.Packets == 0 && ts.Shed == 0 && ts.RateShed == 0 {
						continue
					}
					log.Info("tenant", "id", ts.Tenant, "open", ts.OpenBlocks,
						"bytes", ts.BytesInFlight, "packets", ts.Packets,
						"rateShed", ts.RateShed, "shed", ts.Shed,
						"evicted", ts.Evicted, "nacked", ts.Nacked)
				}
			}
		}()
	}

	<-stop
	log.Info("shutting down")
	if err := srv.Close(); err != nil {
		log.Error("close", "err", err)
		os.Exit(1)
	}
}
