package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/membership"
	"repro/internal/server"
	"repro/internal/setdb"
	"repro/internal/wal"
)

// requestTimeout bounds every request; a timed-out request fails.
const requestTimeout = 10 * time.Second

// fsyncPolicy is the WAL policy of the churn workload: interval syncing
// at the store's default period, no background snapshots.
const fsyncPolicy = wal.FsyncInterval

// dbOptions is bstserved's default profile for a fresh database:
// accuracy 0.9, design set size 1,000, k=3, pruned tree, the default
// (fast) hash family and the counting backend, here at M=2^20.
func dbOptions() (setdb.Options, error) {
	opts, err := setdb.PlanOptions(0.9, 1000, namespace, 3)
	if err != nil {
		return setdb.Options{}, err
	}
	opts.Pruned = true
	opts.Backend = membership.KindCounting
	return opts, nil
}

// serve runs the server until its standard input closes. It opens the
// database (through wal.Open in walDir when one is given), serves it
// on 127.0.0.1 over HTTP and the wire protocol, and prints the two
// addresses on one line. The server runs in a process of its own so
// that the load generator's goroutines never wait for a processor the
// server holds: with both in one runtime, a reply or a due request
// could wait out a 10 ms scheduling slice.
func serve(walDir string) error {
	opts, err := dbOptions()
	if err != nil {
		return err
	}
	var store *wal.Store
	var db *setdb.DB
	if walDir != "" {
		store, err = wal.Open(walDir, func() (*setdb.DB, error) { return setdb.Open(opts) },
			wal.Options{Fsync: fsyncPolicy})
		if err != nil {
			return err
		}
		defer store.Close()
	} else if db, err = setdb.Open(opts); err != nil {
		return err
	}
	// The server's own defaults, as bstserved ships them: tracing on,
	// slow requests logged (to a discarding logger here).
	api := server.New(db, server.Config{Durability: store, SlowRequest: time.Second})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	// The server process's memory counters, after a forced GC with ?gc=1.
	mux.HandleFunc("/perfbench/mem", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("gc") == "1" {
			runtime.GC()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprint(w, ms.HeapInuse, ms.TotalAlloc, ms.NumGC)
	})
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 2)
	go func() { done <- httpSrv.Serve(httpLn) }()
	go func() { done <- api.ServeBinary(binLn) }()
	fmt.Printf("http=%s bin=%s\n", httpLn.Addr(), binLn.Addr())
	io.Copy(io.Discard, os.Stdin) // the load process closes it to stop us

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	if berr := api.ShutdownBinary(ctx); err == nil {
		err = berr
	}
	for i := 0; i < 2; i++ {
		if e := <-done; e != nil && !errors.Is(e, http.ErrServerClosed) && !errors.Is(e, server.ErrBinaryClosed) && err == nil {
			err = e
		}
	}
	return err
}

// served is a running server process.
type served struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	walDir   string
	httpAddr string
	binAddr  string
}

// startServer starts a server process for sp, with its WAL in dir.
func startServer(sp spec, dir string) (*served, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve"}
	if sp.wal {
		args = append(args, "-wal-dir", dir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &served{cmd: cmd, stdin: stdin}
	if sp.wal {
		s.walDir = dir
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err == nil {
		_, err = fmt.Sscanf(line, "http=%s bin=%s", &s.httpAddr, &s.binAddr)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server process: %w", err)
	}
	return s, nil
}

// close stops the server process, waits for it and deletes its WAL.
func (s *served) close() error {
	s.stdin.Close()
	err := s.cmd.Wait()
	if s.walDir != "" {
		removeAll(s.walDir)
	}
	return err
}

// shed returns the server's shed count over all endpoints, from
// /v1/stats.
func (s *served) shed() (uint64, error) {
	st, err := serverStats(s.httpAddr)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, e := range st.Endpoints {
		n += e.Shed
	}
	return n, nil
}

// memStats is the server process's runtime.MemStats subset.
type memStats struct {
	heapInuse, totalAlloc uint64
	numGC                 uint32
}

// mem reads the server process's memory counters, after a forced GC
// when gc is set.
func (s *served) mem(gc bool) (memStats, error) {
	var m memStats
	url := "http://" + s.httpAddr + "/perfbench/mem"
	if gc {
		url += "?gc=1"
	}
	c := http.Client{Timeout: requestTimeout}
	resp, err := c.Get(url)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if _, err := fmt.Fscan(resp.Body, &m.heapInuse, &m.totalAlloc, &m.numGC); err != nil {
		return m, fmt.Errorf("server memory counters: %w", err)
	}
	return m, nil
}
