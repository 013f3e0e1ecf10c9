package lmac

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// beaconModel is the MAC with an explicit beacon in every frame, frozen
// as the reference the MAC is held to. Each frame, every registered live
// node in (slot, id) order beacons to its registered live neighbors,
// which stamp it with the frame number, and flushes its queue; then every
// registered live node sweeps its table and declares each neighbor dead
// whose stamp is deadThreshold frames old. The MAC stores stamps only at
// power flips and declares deaths from a pending list; the two must agree
// on every delivery, every meter reading and every death notification.
type beaconModel struct {
	channel       *radio.Channel
	order         []topology.NodeID
	adj           [][]topology.NodeID // sorted radio neighbors
	lastHeard     [][]int64           // parallel to adj
	registered    []bool
	queue         [][]queuedMsg
	frame         int64
	deadThreshold int64
	onDead        func(at, dead topology.NodeID)
}

func newBeaconModel(channel *radio.Channel) (*beaconModel, error) {
	g := channel.Graph()
	n := g.Len()
	slots, err := AssignSlots(g)
	if err != nil {
		return nil, err
	}
	b := &beaconModel{
		channel:       channel,
		adj:           make([][]topology.NodeID, n),
		lastHeard:     make([][]int64, n),
		registered:    make([]bool, n),
		queue:         make([][]queuedMsg, n),
		deadThreshold: DefaultDeadThreshold,
	}
	for i := 0; i < n; i++ {
		b.adj[i] = append([]topology.NodeID(nil), g.Neighbors(topology.NodeID(i))...)
		b.lastHeard[i] = make([]int64, len(b.adj[i]))
		for k := range b.lastHeard[i] {
			b.lastHeard[i][k] = unheard
		}
		b.order = append(b.order, topology.NodeID(i))
	}
	sort.SliceStable(b.order, func(i, j int) bool { return slots[b.order[i]] < slots[b.order[j]] })
	for i := 0; i < n; i++ {
		if channel.Alive(topology.NodeID(i)) {
			b.register(topology.NodeID(i))
		}
	}
	return b, nil
}

// register marks a node MAC-active and primes its table: a live neighbor
// counts as heard just before the current frame.
func (b *beaconModel) register(id topology.NodeID) {
	b.registered[id] = true
	for k, nb := range b.adj[id] {
		if b.channel.Alive(nb) {
			b.lastHeard[id][k] = b.frame - 1
		} else {
			b.lastHeard[id][k] = unheard
		}
	}
}

func (b *beaconModel) live(id topology.NodeID) bool {
	return b.registered[id] && b.channel.Alive(id)
}

func (b *beaconModel) OnNeighborDead(fn func(at, dead topology.NodeID)) { b.onDead = fn }

func (b *beaconModel) SetDeadThreshold(frames int64) { b.deadThreshold = frames }

func (b *beaconModel) Frame() int64 { return b.frame }

func (b *beaconModel) Unicast(from, to topology.NodeID, class radio.Class, msg any) {
	b.queue[from] = append(b.queue[from], queuedMsg{to: to, class: class, msg: msg})
}

func (b *beaconModel) Broadcast(from topology.NodeID, class radio.Class, msg any) {
	b.queue[from] = append(b.queue[from], queuedMsg{to: -1, broadcast: true, class: class, msg: msg})
}

func (b *beaconModel) Multicast(from topology.NodeID, targets []topology.NodeID, class radio.Class, msg any) {
	if len(targets) == 0 {
		return
	}
	b.queue[from] = append(b.queue[from], queuedMsg{
		to: -1, targets: append([]topology.NodeID(nil), targets...),
		class: class, msg: msg,
	})
}

func (b *beaconModel) Kill(id topology.NodeID) {
	b.channel.SetAlive(id, false)
	b.queue[id] = nil
	b.registered[id] = false
}

func (b *beaconModel) Join(id topology.NodeID) {
	b.channel.SetAlive(id, true)
	b.register(id)
}

func (b *beaconModel) RunFrame() {
	for _, id := range b.order {
		if !b.live(id) {
			continue
		}
		// Beacon: every registered live neighbor hears us.
		for _, nb := range b.adj[id] {
			if b.live(nb) {
				k, _ := slices.BinarySearch(b.adj[nb], id)
				b.lastHeard[nb][k] = b.frame
			}
		}
		// Flush the queue as it stood at the start of the slot.
		pending := b.queue[id]
		b.queue[id] = nil
		for _, qm := range pending {
			switch {
			case qm.broadcast:
				b.channel.Broadcast(id, qm.class, qm.msg)
			case qm.targets != nil:
				b.channel.Multicast(id, qm.targets, qm.class, qm.msg)
			default:
				b.channel.Unicast(id, qm.to, qm.class, qm.msg)
			}
		}
	}
	// Liveness sweep, holders and their rows in ascending order.
	for i := range b.adj {
		at := topology.NodeID(i)
		if !b.live(at) {
			continue
		}
		var dead []int
		for k, last := range b.lastHeard[i] {
			if last != unheard && b.frame-last >= b.deadThreshold {
				dead = append(dead, k)
			}
		}
		for _, k := range dead {
			b.lastHeard[i][k] = unheard
			if b.onDead != nil {
				b.onDead(at, b.adj[i][k])
			}
		}
	}
	b.frame++
}

// frameMAC is what the schedule drives: the MAC and the beacon model.
type frameMAC interface {
	OnNeighborDead(fn func(at, dead topology.NodeID))
	Unicast(from, to topology.NodeID, class radio.Class, msg any)
	Broadcast(from topology.NodeID, class radio.Class, msg any)
	Multicast(from topology.NodeID, targets []topology.NodeID, class radio.Class, msg any)
	Kill(id topology.NodeID)
	Join(id topology.NodeID)
	SetDeadThreshold(frames int64)
	RunFrame()
	Frame() int64
}

// Schedule operations. Node arguments are reduced modulo the network
// size; a kill never targets the root.
const (
	opUnicast   = iota // a sends msg to its (b mod degree)-th neighbor
	opBroadcast        // a broadcasts msg
	opMulticast        // a multicasts msg to the neighbors in bitmask b
	opKill             // a powers off
	opJoin             // a joins (again)
	opThreshold        // the dead threshold becomes 1 + b mod 6
	opFrames           // 1 + b mod 4 frames run
	numOps
)

type schedOp struct {
	kind, a, b int
}

// schedule is one run: a network, the nodes powered off before the MAC
// is built, and the operations. Every run ends with enough frames for
// each death the operations started to be declared.
type schedule struct {
	net       int // index into scheduleNets
	deadStart []int
	ops       []schedOp
}

var scheduleNets = []struct {
	name  string
	build func() (*topology.Graph, error)
}{
	{"line5", func() (*topology.Graph, error) { return topology.PlaceLine(5, 1) }},
	{"grid3", func() (*topology.Graph, error) { return topology.PlaceGrid(3, 1, 1.5) }},
	{"random50", func() (*topology.Graph, error) {
		return topology.PlaceRandom(topology.DefaultPlacement(), sim.NewRNG(6))
	}},
}

type delivery struct {
	frame    int64
	at, from topology.NodeID
	msg      any
}

type death struct {
	frame    int64
	at, dead topology.NodeID
}

type runTrace struct {
	deliveries []delivery
	deaths     []death
	cost       []radio.Cost // by class, then the total
	frames     int64
}

// tailFrames ends every schedule: one more than the largest threshold
// opThreshold can set, so every started death is declared.
const tailFrames = 8

// runSchedule drives one frameMAC through s. An odd message is relayed
// back to its sender as msg/2, so deliveries dirty nodes mid-frame both
// ahead of and behind the slot cursor.
func runSchedule(t testing.TB, s schedule, build func(*radio.Channel) (frameMAC, error)) runTrace {
	t.Helper()
	g, err := scheduleNets[s.net].build()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	meter := radio.NewMeter(n)
	ch := radio.NewChannel(g, meter)
	for _, id := range s.deadStart {
		ch.SetAlive(topology.NodeID(id%(n-1)+1), false)
	}
	m, err := build(ch)
	if err != nil {
		t.Fatal(err)
	}
	var tr runTrace
	ch.SetReceiver(func(at, from topology.NodeID, msg any) {
		tr.deliveries = append(tr.deliveries, delivery{m.Frame(), at, from, msg})
		if v := msg.(int); v%2 == 1 {
			m.Unicast(at, from, radio.ClassQuery, v/2)
		}
	})
	m.OnNeighborDead(func(at, dead topology.NodeID) {
		tr.deaths = append(tr.deaths, death{m.Frame(), at, dead})
	})
	frames := func(k int) {
		for ; k > 0; k-- {
			m.RunFrame()
		}
	}
	for _, op := range s.ops {
		a := topology.NodeID(op.a % n)
		nbs := g.Neighbors(a)
		switch op.kind % numOps {
		case opUnicast:
			if len(nbs) > 0 {
				m.Unicast(a, nbs[op.b%len(nbs)], radio.ClassUpdate, op.b)
			}
		case opBroadcast:
			m.Broadcast(a, radio.ClassEstimate, op.b)
		case opMulticast:
			var targets []topology.NodeID
			for k, nb := range nbs {
				if op.b>>(k%8)&1 == 1 {
					targets = append(targets, nb)
				}
			}
			m.Multicast(a, targets, radio.ClassQuery, op.b)
		case opKill:
			m.Kill(topology.NodeID(op.a%(n-1) + 1))
		case opJoin:
			m.Join(a)
		case opThreshold:
			m.SetDeadThreshold(int64(1 + op.b%6))
		case opFrames:
			frames(1 + op.b%4)
		}
	}
	frames(tailFrames)
	for _, c := range radio.Classes() {
		tr.cost = append(tr.cost, meter.ByClass(c))
	}
	tr.cost = append(tr.cost, meter.Total())
	tr.frames = m.Frame()
	return tr
}

func buildMAC(ch *radio.Channel) (frameMAC, error) { return New(sim.NewEngine(), ch) }

func buildModel(ch *radio.Channel) (frameMAC, error) { return newBeaconModel(ch) }

// checkAgainstModel runs s on the MAC and on the beacon model and reports
// the first difference.
func checkAgainstModel(t testing.TB, s schedule) {
	t.Helper()
	got := runSchedule(t, s, buildMAC)
	want := runSchedule(t, s, buildModel)
	if got.frames != want.frames {
		t.Fatalf("frames: MAC %d, model %d", got.frames, want.frames)
	}
	if err := firstDiff("meter", got.cost, want.cost); err != nil {
		t.Fatal(err)
	}
	if err := firstDiff("delivery", got.deliveries, want.deliveries); err != nil {
		t.Fatal(err)
	}
	if err := firstDiff("death", got.deaths, want.deaths); err != nil {
		t.Fatal(err)
	}
}

func firstDiff[T comparable](what string, got, want []T) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("%s %d: MAC %+v, model %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s count: MAC %d, model %d", what, len(got), len(want))
	}
	return nil
}

// TestMACMatchesBeaconModel holds the MAC to the beacon model on
// hand-written schedules of traffic, power flips and threshold changes.
func TestMACMatchesBeaconModel(t *testing.T) {
	f := func(k int) schedOp { return schedOp{kind: opFrames, b: k - 1} } // k frames, 1..4
	kill := func(id int) schedOp { return schedOp{kind: opKill, a: id - 1} }
	join := func(id int) schedOp { return schedOp{kind: opJoin, a: id} }
	uni := func(from, msg int) schedOp { return schedOp{kind: opUnicast, a: from, b: msg} }
	thr := func(frames int) schedOp { return schedOp{kind: opThreshold, b: frames - 1} }
	cases := []struct {
		name string
		s    schedule
	}{
		{"traffic-and-relays", schedule{net: 2, ops: []schedOp{
			uni(0, 0), f(1), {opMulticast, 2, 0xff}, f(2), {opBroadcast, 4, 7}, uni(9, 15), f(3),
		}}},
		{"kill-detected", schedule{net: 0, ops: []schedOp{f(3), kill(2), f(4), f(2)}}},
		{"kill-rejoin-inside-threshold", schedule{net: 0, ops: []schedOp{
			f(2), kill(2), f(2), join(2), f(1), kill(2), f(1),
		}}},
		{"kill-rejoin-after-detection", schedule{net: 0, ops: []schedOp{
			kill(1), f(4), f(2), join(1), uni(1, 3), f(2), kill(1),
		}}},
		{"flips-between-frames", schedule{net: 1, ops: []schedOp{
			f(1), kill(4), join(4), kill(4), kill(3), join(5), kill(5), f(2), join(3), kill(7), join(7), f(1),
		}}},
		{"join-dead-at-construction", schedule{net: 1, deadStart: []int{3, 7}, ops: []schedOp{
			f(2), uni(4, 1), join(8), f(1), join(4), uni(4, 5), f(1), kill(4), f(4), f(4),
		}}},
		{"traffic-queued-while-dead", schedule{net: 0, ops: []schedOp{
			kill(3), uni(3, 2), f(1), join(3), f(1), kill(3), {opBroadcast, 3, 4}, f(2), join(3), f(1),
		}}},
		{"join-of-live-node", schedule{net: 1, ops: []schedOp{
			f(2), kill(4), f(1), join(1), f(4), f(1), join(4), join(4), f(2), kill(5), join(3), f(4),
		}}},
		{"rejoin-and-kill-between-frames", schedule{net: 0, ops: []schedOp{
			f(2), kill(2), f(2), join(2), kill(2), f(4), join(2), f(1), join(3), kill(3), f(4),
		}}},
		{"threshold-changes", schedule{net: 2, ops: []schedOp{
			f(1), kill(10), thr(6), f(4), kill(11), thr(1), f(1), kill(12), thr(3), f(1), thr(2), f(2),
		}}},
		{"holder-dies-first", schedule{net: 0, ops: []schedOp{
			f(1), kill(2), f(1), kill(1), f(2), join(1), f(1), kill(3), join(2), f(4),
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstModel(t, tc.s)
		})
	}
}

// decodeSchedule turns fuzz bytes into a schedule: the network, a mask of
// nodes powered off at construction, then two bytes per operation.
func decodeSchedule(data []byte) schedule {
	var s schedule
	if len(data) > 0 {
		s.net = int(data[0]) % len(scheduleNets)
		data = data[1:]
	}
	if len(data) > 0 {
		for k := 0; k < 8; k++ {
			if data[0]>>k&1 == 1 {
				s.deadStart = append(s.deadStart, 3*k)
			}
		}
		data = data[1:]
	}
	for ; len(data) >= 2 && len(s.ops) < 256; data = data[2:] {
		s.ops = append(s.ops, schedOp{kind: int(data[0] % numOps), a: int(data[0] / numOps), b: int(data[1])})
	}
	return s
}

// FuzzMACMatchesBeaconModel holds the MAC to the beacon model on
// schedules of enqueues, kills, joins, threshold changes and frames.
func FuzzMACMatchesBeaconModel(f *testing.F) {
	f.Add([]byte{0, 0, opKill, 0, opFrames, 3, opFrames, 3})
	f.Add([]byte{1, 0x05, opFrames, 1, opKill + 3*numOps, 0, opJoin + 4*numOps, 0, opKill + 3*numOps, 0, opFrames, 2})
	f.Add([]byte{2, 0x22, opUnicast, 7, opMulticast + 2*numOps, 0xff, opKill + 9*numOps, 0, opThreshold, 1, opFrames, 3,
		opJoin + 10*numOps, 0, opBroadcast + 10*numOps, 9, opFrames, 0})
	f.Add([]byte{1, 0x81, opJoin + 3*numOps, 0, opUnicast + 3*numOps, 3, opFrames, 1, opJoin + 3*numOps, 0, opKill + 2*numOps, 0, opFrames, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstModel(t, decodeSchedule(data))
	})
}
