package store

import (
	"bytes"
	"testing"

	"optspeed/internal/jobs"
)

// fuzzSeedStream builds a realistic WAL byte stream (no file header):
// one framed record per lifecycle step of a small job.
func fuzzSeedStream(tb testing.TB) []byte {
	tb.Helper()
	var buf []byte
	var err error
	job := jobs.PersistedJob{ID: "j1", Kind: jobs.KindSweep, State: jobs.StatePending, Total: 2}
	steps := []struct {
		typ  byte
		body any
	}{
		{recSubmit, encodeJob(job)},
		{recStart, startJSON{ID: "j1", Total: 2}},
		{recChunk, chunkJSON{ID: "j1", Results: encodeResults(testAnswers(2, 0))}},
		{recFinish, finishJSON{ID: "j1", State: jobs.StateSucceeded}},
		{recCancel, idJSON{ID: "j1"}},
		{recRemove, idJSON{ID: "j1"}},
	}
	for _, s := range steps {
		if buf, err = encodeRecord(buf, s.typ, s.body); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// FuzzDecodeWALRecord drives the shared replay decode path — frame
// splitting plus per-record decoding — with arbitrary bytes. The
// invariants: never panic, always make forward progress, and never
// accept a frame whose checksum does not match its payload.
func FuzzDecodeWALRecord(f *testing.F) {
	valid := fuzzSeedStream(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-record
	flipped := bytes.Clone(valid)
	flipped[frameSize+1] ^= 0x40 // bit flip inside the first payload
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length field
	f.Add(appendFrame(nil, []byte{recChunk, '{', '}'}))
	f.Add(appendFrame(nil, []byte{99, 'x'})) // unknown record type
	f.Add(header(walMagic))                  // header bytes are not a frame

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			payload, next, err := nextFrame(rest)
			if err != nil {
				break // truncate-here: replay stops at the first bad frame
			}
			if len(next) >= len(rest) {
				t.Fatalf("nextFrame made no progress: %d -> %d bytes", len(rest), len(next))
			}
			if _, _, err := decodeRecord(payload); err == nil {
				// A record the decoder accepts must survive a re-encode
				// of its frame: the checksum the reader verified is the
				// one the writer would produce.
				reframed := appendFrame(nil, payload)
				if !bytes.Equal(reframed, rest[:len(rest)-len(next)]) {
					t.Fatal("accepted frame does not round-trip")
				}
			}
			rest = next
		}
	})
}
