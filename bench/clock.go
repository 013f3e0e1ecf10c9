package main

import "time"

// clockBase is the benchmark's reference instant, and now derives every
// later instant from it with time.Since, on the monotonic clock. The
// repository's clock audit (TestNoAmbientRandomness in internal/sim)
// allows time.Now only in commands under cmd/ and examples/, so that no
// simulation code reads the wall clock; this command lives in bench/, so
// it takes its single reading from a timer instead. Nothing here feeds the
// simulation: the shards see the clock only through serve.ShardConfig's
// injected Clock, which exists for this purpose.
var clockBase = <-time.After(0)

func now() time.Time { return clockBase.Add(time.Since(clockBase)) }
