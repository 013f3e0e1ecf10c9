// Package radio models the wireless channel at the granularity the paper's
// evaluation uses: broadcast and unicast message delivery over the unit-disk
// connectivity graph, with message-cost accounting where one transmission
// costs one unit and one reception costs one unit (§5, "the cost of
// transmitting a message is assumed to be one unit while the cost of
// receiving a message is also assumed to be one unit").
//
// In the repo's layer map this is substrate: lmac flushes every TDMA slot
// through Channel broadcast/multicast/unicast, and all experiment cost
// figures read the Meter. Every reception goes through one Receiver, set
// once with SetReceiver and called with the node the message reached;
// core installs one that indexes its node table, so a delivery is one
// indirect call and no per-node handler exists. The delivery hot path is
// allocation-free; the address lists a multicast carries are pooled by
// the MAC above.
package radio
