package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts, for any code, by
// up to a factor of two over seconds to minutes, as other tenants contend
// for the cores, the caches and the memory. A run therefore times a fixed
// reference kernel, which uses none of the program's code, next to the
// work it measures, and reports its timings at the reference speed: a
// measured median t becomes t × refNominal / r, where r is the kernel's
// median time in the same phase of the run. A program that gets slower
// still reads slower by the same factor; a host that gets slower mostly
// does not.

// refNominal is the reference kernel's typical median time, in seconds,
// on a shared 2-vCPU Intel Xeon host with Go 1.24 (0.045–0.058 s were
// seen there). It only fixes the unit the scaled timings read in.
const refNominal = 0.050

// durableWrites is how many small appends the kernel makes durable, with
// fsync, for a workload whose program makes its own writes durable. On a
// quiet host they take about a fifth of the kernel's time, the share the
// daemon's ledger, journal and result syncs take of its rounds.
const durableWrites = 120

// reference runs the reference kernel. It owns a loopback connection to
// an echo goroutine, which close stops, and, for a workload that writes
// durably, a scratch file that close removes.
type reference struct {
	ln    net.Listener
	conn  net.Conn
	done  chan struct{}
	table []uint32
	buf   []byte
	file  *os.File
	page  []byte
}

// newReference starts the kernel's echo goroutine. When durableDir is not
// empty the kernel also appends to a file there and syncs each append:
// shared disks slow down as other tenants write, and a program that
// fsyncs slows down with them.
func newReference(durableDir string) (*reference, error) {
	var f *os.File
	if durableDir != "" {
		var err error
		if f, err = os.CreateTemp(durableDir, "reference-"); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
		return nil, err
	}
	r := &reference{ln: ln, done: make(chan struct{}), table: make([]uint32, 4<<20), buf: make([]byte, 32),
		file: f, page: make([]byte, 512)}
	go func() {
		defer close(r.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		//benchlint:allow uncheckederr — the echo ends when the kernel's side closes
		io.Copy(c, c)
	}()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		r.conn = nil
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the echo goroutine, waits for it and removes the scratch
// file.
func (r *reference) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	r.ln.Close()
	<-r.done
	if r.file != nil {
		r.file.Close()
		os.Remove(r.file.Name())
	}
}

var refSink any

// kernel does a fixed mix of what the program does — integer arithmetic
// and map updates, random reads and writes over a table larger than the
// L2 cache, loopback round trips, and short-lived allocations that keep
// the collector busy — in about equal parts, then the durable appends if
// it has a file, and returns its wall time in seconds.
func (r *reference) kernel() (float64, error) {
	t0 := time.Now()
	var x uint64 = 1
	for k := 0; k < 18; k++ {
		m := map[string][]uint64{}
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			key := strconv.Itoa(int(x>>54) % 700)
			m[key] = append(m[key], x)
		}
		keys := make([]string, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		refSink = keys
		for i := 0; i < 200_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	n := uint64(len(r.table))
	var acc uint32
	for i := 0; i < 500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) % n
		acc += r.table[j]
		r.table[(j*31)%n] = acc
	}
	for i := 0; i < 1000; i++ {
		if _, err := r.conn.Write(r.buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(r.conn, r.buf); err != nil {
			return 0, err
		}
	}
	s := 0
	for i := 0; i < 8; i++ {
		s += refCheck(refBuild(14))
	}
	refSink = s
	if r.file != nil {
		if err := r.file.Truncate(0); err != nil {
			return 0, err
		}
		for i := 0; i < durableWrites; i++ {
			if _, err := r.file.Write(r.page); err != nil {
				return 0, err
			}
			if err := r.file.Sync(); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0).Seconds(), nil
}

type refNode struct {
	l, r *refNode
	v    int
}

func refBuild(depth int) *refNode {
	if depth == 0 {
		return &refNode{v: 1}
	}
	return &refNode{refBuild(depth - 1), refBuild(depth - 1), depth}
}

func refCheck(n *refNode) int {
	if n.l == nil {
		return n.v
	}
	return n.v + refCheck(n.l) - refCheck(n.r)
}

// refClock keeps the reference kernel's times over one phase of a run.
type refClock struct {
	ref     *reference
	samples []float64
}

// sample times the kernel once. It collects garbage before and after,
// so that neither the kernel nor the measured work that follows pays for
// the other's.
func (c *refClock) sample() error {
	runtime.GC()
	t, err := c.ref.kernel()
	if err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	c.samples = append(c.samples, t)
	runtime.GC()
	return nil
}

// scale is the factor that brings a time measured in this phase to the
// reference speed.
func (c *refClock) scale() float64 {
	return refNominal / quantile(c.samples, 0.5)
}
