package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheKeyShape(t *testing.T) {
	k1 := CacheKey("prog", []string{"FT", "BF"}, true)
	k2 := CacheKey("prog", []string{"FT", "BF"}, false)
	k3 := CacheKey("prog", []string{"FT"}, true)
	k4 := CacheKey("gorp", []string{"FT", "BF"}, true)
	for _, pair := range [][2]string{{k1, k2}, {k1, k3}, {k1, k4}, {k2, k3}} {
		if pair[0] == pair[1] {
			t.Errorf("keys must differ: %q", pair[0])
		}
	}
	if SourceHash("prog") != SourceHash("prog") {
		t.Error("content hash must be stable")
	}
}

func TestCacheHitMissEvictionCounts(t *testing.T) {
	c := NewCache(2, nil)
	build := func(name string) func() (*Artifact, error) {
		return func() (*Artifact, error) { return &Artifact{Hash: name}, nil }
	}

	a1, hit, err := c.GetOrBuild("k1", build("a1"))
	if err != nil || hit {
		t.Fatalf("first build: hit=%v err=%v", hit, err)
	}
	got, hit, err := c.GetOrBuild("k1", build("other"))
	if err != nil || !hit || got != a1 {
		t.Fatalf("second lookup must hit and share: hit=%v got=%p want=%p", hit, got, a1)
	}

	// Fill past capacity: k1 was most recently used, so k2 evicts first.
	c.GetOrBuild("k2", build("a2"))
	c.GetOrBuild("k1", build("a1'")) // refresh k1 recency (hit)
	c.GetOrBuild("k3", build("a3"))  // evicts k2 (LRU)

	if c.Peek("k2") {
		t.Error("k2 should have been evicted (LRU)")
	}
	if !c.Peek("k1") || !c.Peek("k3") {
		t.Error("k1 and k3 should be resident")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want hits=2 misses=3 evictions=1", st)
	}
	if st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("size = %+v", st)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(4, nil)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrBuild("k", func() (*Artifact, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	art, hit, err := c.GetOrBuild("k", func() (*Artifact, error) { calls++; return &Artifact{}, nil })
	if err != nil || hit || art == nil {
		t.Fatalf("retry after failed build: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Errorf("build called %d times, want 2 (errors are not cached)", calls)
	}
}

// TestCacheBuildPanicUnwedges is the regression test for the
// artifact-cache panic wedge: a panicking build used to leave call.done
// unclosed and the key stuck in c.building, so every future request for
// that key blocked forever.  Now waiters collapsed onto the in-flight
// build receive an error, the panic resumes in the builder's goroutine,
// and a retry rebuilds the key successfully.
func TestCacheBuildPanicUnwedges(t *testing.T) {
	c := NewCache(4, nil)

	builderStarted := make(chan struct{})
	releaseBuilder := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrBuild("k", func() (*Artifact, error) {
			close(builderStarted)
			<-releaseBuilder
			panic("injected build failure")
		})
	}()
	<-builderStarted

	// A second caller collapses onto the in-flight build before it
	// panics; it must be unblocked with an error, not hang.
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild("k", func() (*Artifact, error) {
			t.Error("waiter must not build while the key is in flight")
			return &Artifact{}, nil
		})
		waiterErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Collapsed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Stats().Collapsed == 0 {
		t.Fatal("second caller never collapsed onto the in-flight build")
	}
	close(releaseBuilder)

	r := <-panicked
	if r == nil {
		t.Fatal("the panic must resume in the builder's goroutine")
	}
	if !strings.Contains(fmt.Sprint(r), "injected build failure") {
		t.Errorf("builder re-panicked with %v, want the injected value", r)
	}
	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter error = %v, want a build-panicked error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the build panicked: key is wedged")
	}

	// The key is unwedged: a retry builds fresh and caches.
	art, hit, err := c.GetOrBuild("k", func() (*Artifact, error) {
		return &Artifact{Hash: "rebuilt"}, nil
	})
	if err != nil || hit || art == nil || art.Hash != "rebuilt" {
		t.Fatalf("retry after panic: art=%v hit=%v err=%v", art, hit, err)
	}
	if !c.Peek("k") {
		t.Error("rebuilt artifact is not resident")
	}
}

// TestCacheConcurrentHammer pins the cache's concurrency contract under
// -race: concurrent readers share artifacts safely, concurrent misses
// on one key collapse onto a single build, and the counters stay
// consistent.
func TestCacheConcurrentHammer(t *testing.T) {
	c := NewCache(8, nil)
	var builds atomic.Int64
	const goroutines = 32
	const keys = 4 // fits in capacity: every key builds exactly once

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%keys)
				art, _, err := c.GetOrBuild(key, func() (*Artifact, error) {
					builds.Add(1)
					return &Artifact{Hash: key}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if art.Hash != key {
					t.Errorf("key %s got artifact %s", key, art.Hash)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != keys {
		t.Errorf("%d builds for %d keys: concurrent misses did not collapse", n, keys)
	}
	st := c.Stats()
	if st.Misses < keys || st.Hits == 0 {
		t.Errorf("implausible stats after hammer: %+v", st)
	}
}

// TestEngineCacheEndToEnd: BuildSource through a cached engine reuses
// artifacts across calls and across variant subsets only on exact spec
// match.
func TestEngineCacheEndToEnd(t *testing.T) {
	e := New(Options{CacheSize: 4})
	art1, hit, err := e.BuildSource(racy, BuildSpec{WithBase: true})
	if err != nil || hit {
		t.Fatalf("first build: hit=%v err=%v", hit, err)
	}
	art2, hit, err := e.BuildSource(racy, BuildSpec{WithBase: true})
	if err != nil || !hit || art2 != art1 {
		t.Fatalf("rebuild must hit: hit=%v same=%v err=%v", hit, art1 == art2, err)
	}
	_, hit, err = e.BuildSource(racy, BuildSpec{Variants: []string{"BF"}})
	if err != nil || hit {
		t.Fatalf("different spec must miss: hit=%v err=%v", hit, err)
	}
	st := e.Cache().Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("engine cache stats = %+v, want hits=1 misses=2", st)
	}
}
