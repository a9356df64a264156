package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"orchestra/internal/machine"
)

// WriteChromeTrace renders a Trace in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
//
//   - each worker is a named thread track carrying the operator chunk
//     spans it executed ("X" complete events);
//   - steals are flow arrows ("s"/"f" pairs) from the victim's track
//     to the thief's;
//   - TAPER grain decisions are per-operator counter tracks ("C"
//     events) showing the chosen chunk size over time;
//   - gate advances are instant events on the observing
//     worker's track;
//   - allocation estimates appear on a dedicated "allocator" track at
//     time zero, with the five estimate terms as args.
//
// Native traces are recorded in seconds and exported in microseconds
// (the format's unit); simulator traces are scaled by
// machine.SimUnitMicroseconds.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	scale := machine.SimUnitMicroseconds
	if t.Unit == "s" {
		scale = 1e6
	}
	type ev map[string]any
	events := make([]ev, 0, len(t.Events)+t.Workers+4)

	events = append(events, ev{
		"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
		"args": map[string]any{"name": t.Backend + "/" + t.Result.Name},
	})
	for i := 0; i < t.Workers; i++ {
		events = append(events, ev{
			"ph": "M", "pid": 1, "tid": i, "name": "thread_name",
			"args": map[string]any{"name": fmt.Sprintf("worker %d", i)},
		})
	}
	allocTid := t.Workers
	if len(t.Allocs) > 0 {
		events = append(events, ev{
			"ph": "M", "pid": 1, "tid": allocTid, "name": "thread_name",
			"args": map[string]any{"name": "allocator"},
		})
	}
	for i, a := range t.Allocs {
		events = append(events, ev{
			"ph": "i", "s": "t", "pid": 1, "tid": allocTid,
			"ts":   float64(i), // spread so Perfetto shows them individually
			"name": fmt.Sprintf("alloc %s p=%d", a.Op, a.Procs),
			"args": map[string]any{
				"round": a.Round, "procs": a.Procs, "chosen": a.Chosen,
				"setup": a.Setup, "compute": a.Compute, "lag": a.Lag,
				"comm": a.Comm, "sched": a.Sched, "total": a.Total(),
			},
		})
	}

	flowID := 0
	for _, e := range t.Events {
		name := t.OpName(e.Op)
		switch e.Kind {
		case KindChunk:
			args := map[string]any{"lo": e.Lo, "n": e.N}
			if e.Arg != 0 {
				args["stolen"] = true
			}
			events = append(events, ev{
				"ph": "X", "pid": 1, "tid": e.Worker, "name": name,
				"cat": "chunk", "ts": e.T0 * scale, "dur": (e.T1 - e.T0) * scale,
				"args": args,
			})
		case KindSteal:
			flowID++
			args := map[string]any{"op": name, "lo": e.Lo, "n": e.N}
			events = append(events,
				ev{"ph": "s", "pid": 1, "tid": e.Arg, "name": "steal",
					"cat": "steal", "id": flowID, "ts": e.T0 * scale, "args": args},
				ev{"ph": "f", "bp": "e", "pid": 1, "tid": e.Worker, "name": "steal",
					"cat": "steal", "id": flowID, "ts": e.T0*scale + 0.01, "args": args})
		case KindTaper:
			events = append(events, ev{
				"ph": "C", "pid": 1, "tid": 0, "name": "grain " + name,
				"ts": e.T0 * scale, "args": map[string]any{"grain": e.N},
			})
		case KindGate:
			events = append(events, ev{
				"ph": "i", "s": "t", "pid": 1, "tid": e.Worker,
				"name": "gate " + name, "cat": "gate", "ts": e.T0 * scale,
				"args": map[string]any{"prefix": e.Lo + e.N, "advanced": e.N},
			})
		case KindFault:
			events = append(events, ev{
				"ph": "i", "s": "g", "pid": 1, "tid": e.Worker,
				"name": fmt.Sprintf("fault w%d", e.Lo), "cat": "fault",
				"ts":   e.T0 * scale,
				"args": map[string]any{"target": e.Lo, "action": e.Arg},
			})
		case KindRetry:
			events = append(events, ev{
				"ph": "i", "s": "t", "pid": 1, "tid": e.Worker,
				"name": "retry " + name, "cat": "fault", "ts": e.T0 * scale,
				"args": map[string]any{"lo": e.Lo, "n": e.N, "victim": e.Arg},
			})
		case KindRealloc:
			events = append(events, ev{
				"ph": "i", "s": "g", "pid": 1, "tid": e.Worker,
				"name": "realloc", "cat": "fault", "ts": e.T0 * scale,
				"args": map[string]any{"live": e.Arg},
			})
		case KindChain:
			events = append(events, ev{
				"ph": "i", "s": "t", "pid": 1, "tid": e.Worker,
				"name": "chain " + name, "cat": "chain", "ts": e.T0 * scale,
				"args": map[string]any{"lo": e.Lo, "n": e.N, "depth": e.Arg},
			})
		case KindSpill:
			events = append(events, ev{
				"ph": "i", "s": "t", "pid": 1, "tid": e.Worker,
				"name": "spill " + name, "cat": "chain", "ts": e.T0 * scale,
				"args": map[string]any{"lo": e.Lo, "n": e.N},
			})
		case KindMsg:
			events = append(events, ev{
				"ph": "X", "pid": 1, "tid": e.Worker, "name": "msg " + name,
				"cat": "msg", "ts": e.T0 * scale, "dur": (e.T1 - e.T0) * scale,
				"args": map[string]any{"lo": e.Lo, "n": e.N, "bytes": e.Arg,
					"exec": e.V0, "comm": e.T1 - e.T0 - e.V0},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
		"otherData": map[string]any{
			"backend": t.Backend, "unit": t.Unit,
			"dropped": t.Dropped, "result": t.Result,
		},
	})
}
