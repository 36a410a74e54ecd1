package sched

import (
	"fmt"

	"fedms/internal/compress"
	"fedms/internal/spill"
)

// Replay moves the records of buf that are due in the current round
// into admit, before any new upload of the round is read: a record not
// yet due (Due past the cursor, or an origin the scheduler defers) goes
// back to the buffer, a record past the staleness bound or whose
// payload does not parse is dropped and counted, and every other one is
// admitted to its destination server (Record.Server) with its
// decision's staleness and weight. Popping exactly Len() records cycles
// the requeued ones to the back once, keeping FIFO order across rounds.
// A nil buffer (sync mode) replays nothing.
func (s *Scheduler) Replay(buf *spill.Buffer, admit func(server int, e Entry)) (dropped int, err error) {
	if buf == nil {
		return 0, nil
	}
	for n := buf.Len(); n > 0; n-- {
		rec, ok, err := buf.Pop()
		if err != nil {
			return dropped, fmt.Errorf("spill: %w", err)
		}
		if !ok {
			break
		}
		d := s.Decide(rec.Origin)
		switch {
		case rec.Due > s.round || d.Outcome == Defer:
			if err := buf.Add(rec); err != nil {
				return dropped, fmt.Errorf("spill requeue: %w", err)
			}
			continue
		case d.Outcome == DropStale:
			dropped++
			continue
		}
		// The segment frame checksummed, so a payload that does not parse
		// was malformed at the sender: drop it like any inadmissible upload.
		v, perr := compress.ParsePayload(compress.Encoding(rec.Enc), rec.Data)
		if perr != nil {
			dropped++
			continue
		}
		admit(rec.Server, Entry{Client: rec.Client, Origin: rec.Origin, Stale: d.Staleness, Weight: d.Weight, View: v})
	}
	return dropped, nil
}
