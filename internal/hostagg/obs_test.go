package hostagg

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/obs"
)

// scrape fetches one Prometheus exposition and returns the sum of the
// samples whose series name starts with prefix.
func scrape(t *testing.T, url, prefix string) float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestConcurrentAggregationAndScrape hammers the server with contributions
// while scraping /metrics concurrently — the -race proof that the exporter's
// lock-free reads (the counters, the Pending gauge) are safe against the
// aggregation hot path. Afterwards the scraped totals must match Stats.
func TestConcurrentAggregationAndScrape(t *testing.T) {
	const workers = 3
	s := newTestServer(t, workers, 0)
	reg := obs.NewRegistry()
	s.RegisterObs(reg)
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				scrape(t, ts.URL, "triogo_hostagg_packets_total")
				scrape(t, ts.URL, "triogo_hostagg_pending_blocks")
				time.Sleep(time.Millisecond)
			}
		}()
	}

	const n = 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		c := newTestClient(t, s, uint8(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32(w + i)
			}
			if _, err := c.AllReduce(1, grads, 512, workers, 10*time.Second); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	stats := s.Stats()
	if got := scrape(t, ts.URL, "triogo_hostagg_packets_total"); got != float64(stats.Packets) {
		t.Errorf("packets total = %v, want %d", got, stats.Packets)
	}
	if got := scrape(t, ts.URL, "triogo_hostagg_completed_total"); got != float64(stats.Completed) || got == 0 {
		t.Errorf("completed total = %v, want %d (nonzero)", got, stats.Completed)
	}
	if got := scrape(t, ts.URL, "triogo_hostagg_pending_blocks"); got != 0 {
		t.Errorf("open blocks after completion = %v, want 0", got)
	}
}

// TestShardDropCountersTrackDuplicatesAndStale checks the exported duplicate
// and stale counters against the drops the table saw.
func TestShardDropCountersTrackDuplicatesAndStale(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	reg := obs.NewRegistry()
	tab.RegisterObs(reg)

	grads := make([]int32, 8)
	for i := 0; i < 3; i++ { // one counted, two duplicates
		tab.Handle(t0, buildContribution(1, 7, 0, 5, grads), workerAddr(0), discard)
	}
	tab.Handle(t0, buildContribution(1, 7, 0, 4, grads), workerAddr(0), discard) // stale generation
	if st := tab.Stats(); st.Duplicates != 2 || st.StaleDrops != 1 {
		t.Fatalf("stats = %+v, want 2 duplicates and 1 stale", st)
	}

	snap := reg.Snapshot()
	if drops := snap["triogo_hostagg_duplicates_total"].(float64) + snap["triogo_hostagg_stale_drops_total"].(float64); drops != 3 {
		t.Errorf("duplicates + stale drops = %v, want 3", drops)
	}
}
