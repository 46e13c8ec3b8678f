package dram

import "fmt"

// Cmd identifies a DDR4 command for observers.
type Cmd int

// The command kinds the controller issues.
const (
	CmdACT Cmd = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
)

func (c Cmd) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	}
	return "?"
}

// CmdEvent is one issued command, reported at its issue cycle.
type CmdEvent struct {
	Cycle   int64
	Cmd     Cmd
	Rank    int
	Bank    int // flattened bank-group-major index within the rank; -1 for REF
	BankGrp int // -1 for REF
	Row     int // ACT/RD/WR; -1 otherwise
	Col     int // RD/WR; -1 otherwise
}

func (e CmdEvent) String() string {
	return fmt.Sprintf("%8d %-3s ra%d bg%d bk%d ro%d co%d",
		e.Cycle, e.Cmd, e.Rank, e.BankGrp, e.Bank, e.Row, e.Col)
}

// Observer receives every command a channel issues, in issue order. Used
// by the protocol checker and the trace dumper; nil observers cost
// nothing.
type Observer interface {
	Command(ch int, e CmdEvent)
}

// Observe attaches an observer to the channel (replacing any previous
// one).
func (c *Channel) Observe(o Observer) { c.observer = o }

func (c *Channel) emit(e CmdEvent) {
	if c.observer != nil {
		c.observer.Command(c.id, e)
	}
}

// emitCAS reports a column command.
func (c *Channel) emitCAS(p *pending, cyc int64, cmd Cmd) {
	if c.observer == nil {
		return
	}
	c.emit(CmdEvent{Cycle: cyc, Cmd: cmd, Rank: p.loc.Rank,
		BankGrp: p.loc.BankGroup, Bank: p.loc.Bank, Row: p.loc.Row, Col: p.loc.Col})
}
