package manet_test

import (
	"testing"

	"lme/internal/microbench"
)

func BenchmarkMobilitySweep(b *testing.B)        { microbench.MobilitySweep(b) }
func BenchmarkBroadcastFanout(b *testing.B)      { microbench.BroadcastFanout(b) }
func BenchmarkNeighborsView(b *testing.B)        { microbench.NeighborsView(b) }
func BenchmarkScaleSweep1k(b *testing.B)         { microbench.ScaleSweep1k(b) }
func BenchmarkScaleSweep1kSharded(b *testing.B)  { microbench.ScaleSweep1kSharded(b) }
func BenchmarkScaleSweep10k(b *testing.B)        { microbench.ScaleSweep10k(b) }
func BenchmarkScaleSweep10kSharded(b *testing.B) { microbench.ScaleSweep10kSharded(b) }
func BenchmarkShardedChurn(b *testing.B)         { microbench.ShardedChurn(b) }
func BenchmarkShardBarrier(b *testing.B)         { microbench.ShardBarrier(b) }
func BenchmarkShardDispatch(b *testing.B)        { microbench.ShardDispatch(b) }
func BenchmarkTelemetryFold(b *testing.B)        { microbench.TelemetryFold(b) }
