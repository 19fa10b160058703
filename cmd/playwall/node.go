// Multi-process node mode: each playwall process hosts one role of the wall
// (root, the splitter bank, or the decoder bank) and all traffic crosses TCP
// through the root's hub — the paper's PC-cluster deployment, with -role all
// as the single-process form on the same sockets. Processes may start in any
// order; workers retry their dial until the hub is up.
package main

import (
	"fmt"
	"hash/fnv"
	"log"
	"sort"
	"sync"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
)

// tileDigest accumulates an order-sensitive FNV-1a digest per (session, tile)
// over every displayed tile frame this process hosts. Two runs of the same
// stream on the same geometry — whatever the process layout — must print
// identical digest lines; the CI smoke test diffs them.
type tileDigest struct {
	mu     sync.Mutex
	sums   map[[2]int]*fnvTile
	sorted []string
}

type fnvTile struct {
	h      uint64
	frames int
}

func newTileDigest() *tileDigest { return &tileDigest{sums: map[[2]int]*fnvTile{}} }

func (d *tileDigest) onFrame(session, picIdx, tile int, buf *mpeg2.PixelBuf) {
	h := fnv.New64a()
	var idx [4]byte
	idx[0], idx[1], idx[2], idx[3] = byte(picIdx>>24), byte(picIdx>>16), byte(picIdx>>8), byte(picIdx)
	h.Write(idx[:])
	h.Write(buf.Y)
	h.Write(buf.Cb)
	h.Write(buf.Cr)
	d.mu.Lock()
	ft := d.sums[[2]int{session, tile}]
	if ft == nil {
		ft = &fnvTile{h: 14695981039346656037}
		d.sums[[2]int{session, tile}] = ft
	}
	// Fold the frame digest in order-sensitively (FNV-1a step per byte of the
	// frame hash), so reordered or dropped frames change the tile digest.
	fh := h.Sum64()
	for i := 0; i < 8; i++ {
		ft.h ^= uint64(byte(fh >> (8 * i)))
		ft.h *= 1099511628211
	}
	ft.frames++
	d.mu.Unlock()
}

func (d *tileDigest) print() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, ft := range d.sums {
		d.sorted = append(d.sorted,
			fmt.Sprintf("tile-digest session=%d tile=%d frames=%d digest=%016x", key[0], key[1], ft.frames, ft.h))
	}
	sort.Strings(d.sorted)
	for _, line := range d.sorted {
		fmt.Println(line)
	}
}

// runNode runs one process of a multi-process wall. The root (and "all")
// listens and feeds sessions; splitter and decoder processes dial and serve
// until the root's clean shutdown or a transport abort.
func runNode(role, listen, connect string, cfg system.Config, stall time.Duration, digest bool, data []byte, sessions int) {
	grid := cfg.Grid()
	var local []int
	hostsDecoders := false
	switch role {
	case "all":
		local = append([]int{cluster.RootNode}, grid.SplitterNodes()...)
		local, hostsDecoders = append(local, grid.TileNodes()...), true
	case "root":
		local = []int{cluster.RootNode}
	case "splitter":
		if cfg.K == 0 {
			log.Fatal("playwall: a one-level wall (-k 0) has no splitter role; the root splits")
		}
		local = grid.SplitterNodes()
	case "decoder":
		local, hostsDecoders = grid.TileNodes(), true
	default:
		log.Fatalf("playwall: unknown -role %q (want root, splitter, decoder or all)", role)
	}

	tcfg := cluster.TCPConfig{
		NumNodes:     cfg.NumNodes(),
		LocalNodes:   local,
		Grid:         grid,
		StallTimeout: stall,
	}
	// The service is built after the transport it is wired to, so link-state
	// events route through an indirection armed once the wall exists.
	var linkSink struct {
		mu sync.Mutex
		w  *service.Wall
	}
	if cfg.Recovery.Enabled {
		tcfg.Recoverable = true
		tcfg.OnLinkState = func(node int, up bool) {
			linkSink.mu.Lock()
			w := linkSink.w
			linkSink.mu.Unlock()
			if w != nil {
				w.NoteLink(node, up)
			}
		}
	}
	var (
		tr  *cluster.TCPTransport
		err error
	)
	if role == "root" || role == "all" {
		tr, err = cluster.ListenTCP(listen, tcfg)
		if err == nil {
			fmt.Printf("playwall %s: hub listening on %s (%d nodes, this process hosts %d)\n",
				role, tr.Addr(), cfg.NumNodes(), len(local))
		}
	} else {
		tr, err = cluster.DialTCP(connect, tcfg)
		if err == nil {
			fmt.Printf("playwall %s: connected to %s (hosting nodes %v)\n", role, connect, local)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	scfg := cfg
	scfg.Wired = tr
	scfg.LocalNodes = local
	scfg.MaxSessions = sessions
	var dig *tileDigest
	if digest && hostsDecoders {
		dig = newTileDigest()
		scfg.OnTileFrame = dig.onFrame
	}
	w, err := service.New(scfg)
	if err != nil {
		tr.Abort(err)
		log.Fatal(err)
	}
	linkSink.mu.Lock()
	linkSink.w = w
	linkSink.mu.Unlock()

	if role == "root" || role == "all" {
		runNodeRoot(w, tr, data, sessions)
	} else {
		if err := w.Wait(); err != nil {
			log.Fatalf("playwall %s: pipeline failed: %v", role, err)
		}
		// Recovery counters are per-process: a kill or a link loss repaired
		// here is visible here, not at the root.
		if rec := w.Recovery(); !rec.Zero() {
			fmt.Printf("playwall %s recovery: %s, health %v\n", role, rec, w.Health())
		}
	}
	if cerr := w.Close(); cerr != nil {
		log.Fatalf("playwall %s: %v", role, cerr)
	}
	tr.Shutdown()
	if dig != nil {
		dig.print()
	}
}

// runNodeRoot feeds the stream through the wall as `sessions` sequential
// sessions and reports per-session throughput. Decoder processes print their
// tile digests as the clean shutdown reaches them.
func runNodeRoot(w *service.Wall, tr *cluster.TCPTransport, data []byte, sessions int) {
	for s := 0; s < sessions; s++ {
		start := time.Now()
		sess, err := w.Open(fmt.Sprintf("node-%d", s))
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.Feed(data); err != nil {
			sess.Close()
			log.Fatal(err)
		}
		res, err := sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("session %d: %d pictures in %v (%.1f fps wall clock)\n",
			s, res.Throughput.Pictures, elapsed.Round(time.Millisecond),
			float64(res.Throughput.Pictures)/elapsed.Seconds())
	}
	st := tr.Stats()
	var sent, recv int64
	for _, s := range st {
		sent += s.BytesSent
		recv += s.BytesRecv
	}
	fmt.Printf("wire traffic: %d bytes sent, %d received across %d nodes\n", sent, recv, len(st))
	if rec := w.Recovery(); !rec.Zero() {
		fmt.Printf("recovery: %s, health %v\n", rec, w.Health())
	}
}
