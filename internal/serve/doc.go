// Package serve is the live query-serving layer over steppable DirQ
// simulations: the paper's actual use case — a user asking "which nodes
// read 10–25 °C right now?" — served online instead of from a canned
// batch workload.
//
// A Manager hosts one or more Shards and hands each query to the shard it
// names, or round-robin when it names none. Each Shard owns a live
// simulated sensor network (one scenario config + seed), advances it
// continuously on its own goroutine, and admits external range queries at
// epoch boundaries through a bounded batching admission queue: the client
// queries that arrived since the previous simulation pass are injected
// together, in arrival order, at the same epoch, and a full queue sheds
// new ones with ErrOverloaded. Every admitted query is answered
// after a fixed settle window (enough epochs for directed dissemination
// to run its course down the tree) with the matched node set, accuracy
// against the ground truth captured at admission, and message cost
// against the flooding baseline.
//
// Determinism: a shard's simulation consumes no randomness beyond its
// seed, and admitted queries influence it only at their admission epochs.
// The same seed plus the same admitted sequence (epoch, type, range —
// recorded in the shard's admission log) therefore reproduces identical
// responses, which Shard.Replay verifies by re-driving a fresh shard
// single-threadedly through a recorded log.
//
// NewHandler exposes a Manager over HTTP (POST /query, GET /stats,
// GET /healthz, GET /shards) and Client is the matching Go client;
// cmd/dirqd wires both into a daemon.
//
// In the repo's layer map this is the serving layer, the top of the
// stack: it drives scenario's steppable runner and is packaged as the
// cmd/dirqd daemon.
package serve
