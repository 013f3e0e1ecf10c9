// Package atc implements the paper's §6 Adaptive Threshold Control: every
// node autonomously picks its threshold δ from (a) the root's hourly
// estimate of query load, EHr, and (b) the locally observed rate of change
// of the measured physical parameter, so that the total cost of DirQ stays
// in the 45–55 %-of-flooding band.
//
// The ICPPW'06 paper defers the controller internals to its unavailable
// companion paper [13], specifying only the inputs and the goal. This
// implementation is a substitution for that design and uses exactly
// those inputs:
//
//   - Budgeting. The root derives, from the §5 cost model applied to the
//     deployed tree, the network-wide update frequency fMax at which DirQ's
//     cost would reach flooding, scales it by the target cost fraction ρ
//     (default 0.5, the centre of the paper's 45–55 % band), and broadcasts
//     the resulting per-node hourly Update Message budget alongside EHr.
//   - Feedforward. A node predicts its update rate for threshold width w
//     from its volatility m (mean |Δreading|/epoch): a signal that moves m
//     per epoch escapes a ±w window roughly m·E/w times per hour, so the
//     node solves m·E/w = budget for w.
//   - Feedback. Each hour the node compares the updates it actually sent
//     with its budget and corrects δ multiplicatively, absorbing the
//     crossing-model error for its local signal shape.
//
// In the repo's layer map this is protocol, beside core: core nodes own a
// Controller each and feed it volatility and estimate broadcasts.
package atc
