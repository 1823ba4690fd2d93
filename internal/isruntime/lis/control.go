package lis

import (
	"io"

	"prism/internal/isruntime/tp"
)

// Control-signal handling: "control messages may need to be passed
// between the ISM and concurrent application processes (directly or
// via the LIS) to control program execution as dictated by debugging
// and steering tools in the environment" (§2.2.3). The ISM broadcasts
// tp.Control messages down the same connections the LIS sends data up;
// ControlLoop is the LIS-side dispatcher.

// Pauser is implemented by LISes that can suspend capture (CtlStop /
// CtlStart).
type Pauser interface {
	Pause(on bool)
}

// ControlLoop reads messages from conn and applies control signals to
// server until the connection closes or a shutdown arrives:
//
//	CtlFlush    -> server.Flush(), then acknowledge with CtlFlushDone
//	CtlStop     -> server.Pause(true), if supported
//	CtlStart    -> server.Pause(false), if supported
//	CtlShutdown -> server.Close(), loop returns nil
//
// Data messages arriving on the connection (none are expected on the
// LIS side) are ignored. The returned error is nil on orderly shutdown
// or EOF, and the transport error otherwise.
func ControlLoop(conn tp.Conn, server LIS) error {
	for {
		msg, err := conn.Recv()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if msg.Type != tp.MsgControl {
			tp.Recycle(&msg) // pooled data payloads go back to the pool
			continue
		}
		switch msg.Control {
		case tp.CtlFlush:
			if err := server.Flush(); err != nil {
				return err
			}
			_ = conn.Send(tp.ControlMessage(msg.Node, tp.CtlFlushDone, msg.Arg))
		case tp.CtlStop:
			if p, ok := server.(Pauser); ok {
				p.Pause(true)
			}
		case tp.CtlStart:
			if p, ok := server.(Pauser); ok {
				p.Pause(false)
			}
		case tp.CtlShutdown:
			return server.Close()
		}
	}
}

// Pause implements Pauser for the buffered LIS: while paused, captures
// are dropped and counted, the dynamic-instrumentation "off" state.
func (b *Buffered) Pause(on bool) {
	b.mu.Lock()
	b.stopped = on
	b.mu.Unlock()
}

// Pause implements Pauser for the forwarding LIS.
func (f *Forwarding) Pause(on bool) {
	f.mu.Lock()
	f.stopped = on
	f.mu.Unlock()
}
