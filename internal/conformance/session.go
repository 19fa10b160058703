package conformance

import (
	"fmt"
	"sync"

	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/wall"
)

// RunSessionMatrix is the resident-service conformance axis: for every
// configuration it builds ONE wall and plays `sessions` concurrent copies of
// the stream through it as separate sessions, each fed incrementally in
// ragged chunks (exercising picture reassembly across arbitrary split
// points). Every session's output must be byte-identical to the serial
// reference — the same oracle RunMatrix holds the one-shot path to.
func RunSessionMatrix(stream []byte, configs []system.Config, sessions int) ([]MatrixResult, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16

	out := make([]MatrixResult, 0, len(configs))
	for _, cfg := range configs {
		cfg.CollectFrames = true
		if cfg.MaxSessions < sessions {
			cfg.MaxSessions = sessions
		}
		mr := MatrixResult{Config: cfg}
		frames, err := playSessions(stream, cfg, sessions)
		if err != nil {
			mr.Err = err
			out = append(out, mr)
			continue
		}
		geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
		if gerr != nil {
			geo = nil
		}
		for _, got := range frames {
			if d := Diff(ref, got, geo); d != nil {
				mr.Divergence = d
				break
			}
		}
		out = append(out, mr)
	}
	return out, nil
}

// playSessions opens one resident wall and feeds `sessions` concurrent
// copies of the stream, each in a different chunking pattern.
func playSessions(stream []byte, cfg system.Config, sessions int) ([][]*mpeg2.PixelBuf, error) {
	w, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	frames := make([][]*mpeg2.PixelBuf, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[i], errs[i] = playChunked(w, stream, i)
		}()
	}
	wg.Wait()
	if cerr := w.Close(); cerr != nil {
		return nil, cerr
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("session %d: %w", i, e)
		}
	}
	return frames, nil
}

// playChunked feeds one session in deterministic ragged chunks whose sizes
// depend on the session index, so concurrent sessions hit the scanner with
// different split points (including mid-start-code splits).
func playChunked(w *service.Wall, stream []byte, idx int) ([]*mpeg2.PixelBuf, error) {
	res, err := playChunkedResult(w, stream, idx)
	if err != nil {
		return nil, err
	}
	return res.Frames, nil
}

// playChunkedResult is playChunked returning the full session result (the
// chaos axes read Recovery and TileEmissions, not just frames).
func playChunkedResult(w *service.Wall, stream []byte, idx int) (*service.SessionResult, error) {
	sess, err := w.Open(fmt.Sprintf("conformance-%d", idx))
	if err != nil {
		return nil, err
	}
	size := 64<<(idx%5) + 7*idx + 1
	for off := 0; off < len(stream); off += size {
		end := off + size
		if end > len(stream) {
			end = len(stream)
		}
		if err := sess.Feed(stream[off:end]); err != nil {
			sess.Close()
			return nil, err
		}
	}
	return sess.Close()
}
