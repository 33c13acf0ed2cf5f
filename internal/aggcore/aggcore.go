// Package aggcore is the decision half of the §5 block protocol, written once
// for the host block table (internal/hostagg) and the PFE aggregator
// (internal/trioml). Decide takes one contribution, the job it claims and the
// shell's view of the block it names, and returns what the protocol does with
// it; the shell then acts, keeping its own locks, quotas, memory operations
// and charges. The order is fixed: validate, then replay or stale, then
// duplicate, then restart, then add. Decide is pure and allocates nothing.
package aggcore

// Mask is a set of source ids 0..255, laid out as the Trio-ML records' four
// 64-bit mask words.
type Mask [4]uint64

// Has reports whether src is in the set.
func (m *Mask) Has(src uint8) bool { return m[src/64]&(1<<(src%64)) != 0 }

// Set adds src to the set.
func (m *Mask) Set(src uint8) { m[src/64] |= 1 << (src % 64) }

// Clear removes src from the set.
func (m *Mask) Clear(src uint8) { m[src/64] &^= 1 << (src % 64) }

// Older reports whether generation a precedes b in modular 16-bit order: the
// id wraps, so order is the sign of the distance.
func Older(a, b uint16) bool { return int16(a-b) < 0 }

// Job is what a contribution is validated against: the sources that may
// contribute and the largest block, in gradients.
type Job struct {
	members Mask
	gradMax int
}

// NewJob returns the job of the given members and largest block.
func NewJob(members Mask, gradMax int) Job { return Job{members: members, gradMax: gradMax} }

// Member reports whether src may contribute.
func (j *Job) Member(src uint8) bool { return j.members.Has(src) }

// Demote removes src from the members: its contributions are refused.
func (j *Job) Demote(src uint8) { j.members.Clear(src) }

// Admits reports whether a contribution from src of gradCnt gradients may
// enter the protocol at all. Decide starts with it; a shell may also call it
// to refuse early.
func (j *Job) Admits(src uint8, gradCnt int) bool {
	return j.members.Has(src) && gradCnt >= 1 && gradCnt <= j.gradMax
}

type state uint8

const (
	none    state = iota // no open record, no served result
	pending              // an open record
	served               // no open record; the result of generation gen is cached
)

// Block is the shell's view of the block a contribution names. The zero
// Block holds nothing: no open record and no served result.
type Block struct {
	state   state
	gen     uint16
	gradCnt int
	rcvd    *Mask
}

// Record is the view of an open record of generation gen, gradCnt
// gradients, that has counted the sources in rcvd. Decide only reads rcvd.
func Record(gen uint16, gradCnt int, rcvd *Mask) Block {
	return Block{state: pending, gen: gen, gradCnt: gradCnt, rcvd: rcvd}
}

// Cached is the view of a block with no open record whose generation gen
// result is cached for replay.
func Cached(gen uint16) Block { return Block{state: served, gen: gen} }

// Action is what the protocol does with one contribution.
type Action uint8

const (
	Refuse    Action = iota // not admitted, or size differs from the open generation's
	Stale                   // older than the generation held
	Duplicate               // source already counted in this generation
	Replay                  // retransmit to the served generation: resend its result
	Open                    // first source; a cached older result is dead
	Restart                 // newer generation: the open record restarts in place
	Add                     // summed into the open record
)

// Adds reports whether the action takes the contribution into a sum: Open,
// Restart and Add do, the others take nothing from it.
func (a Action) Adds() bool { return a >= Open }

// Decide returns the action for a contribution from src to generation gen
// with gradCnt gradients, claiming job j, to block b.
func Decide(src uint8, gen uint16, gradCnt int, j *Job, b *Block) Action {
	switch {
	case !j.Admits(src, gradCnt):
		return Refuse
	case b.state == none:
		return Open
	case Older(gen, b.gen):
		return Stale
	case b.state == served && gen == b.gen:
		return Replay
	case b.state == served:
		return Open
	case gen != b.gen:
		return Restart
	case b.rcvd.Has(src):
		return Duplicate
	case gradCnt != b.gradCnt:
		return Refuse
	}
	return Add
}
