// Package lmac reproduces the behaviour DirQ needs from LMAC (van Hoesel &
// Havinga, 2004): a TDMA MAC with a distributed, self-organizing schedule in
// which every node owns one time slot per frame that is unique within its
// two-hop neighborhood, plus the cross-layer interface of §4.2 of the DirQ
// paper — a notification when a neighboring node dies.
//
// One frame corresponds to one simulation epoch. During its slot a node
// implicitly beacons (which carries neighborhood liveness, as LMAC's control
// section does) and flushes its queued data messages. Beacons are not
// metered: the paper's §5 cost model counts only query and update messages,
// and MAC control overhead is identical for DirQ and flooding.
//
// In the repo's layer map this is the MAC layer between radio and core:
// DirQ nodes hand Update Messages and query forwards to MAC queues, and
// one RunFrame per epoch hands them to the channel. The MAC keeps no
// receive handlers: the channel's one receiver, which core installs,
// takes every delivery straight to the node it reached. The frame loop reuses its slot
// order, queue buffers and multicast address lists, so steady-state
// traffic does not allocate.
//
// A frame visits only the nodes with queued traffic, in (slot, id) order,
// and a frame without traffic or pending deaths is a counter increment.
// Beacons are implicit: every live node beacons in every frame, so a pair
// that has been live through a frame heard each other in the previous
// one, and the MAC stores a liveness stamp only when a power flip ends or
// restarts a pair. A kill puts each live neighbor's entry for the victim
// on a pending list, and the frame that finds it deadThreshold frames old
// declares the death. The frozen per-frame beacon sweep in
// reference_test.go holds the deliveries and the death notifications to
// the frame and the order they have always had.
package lmac
