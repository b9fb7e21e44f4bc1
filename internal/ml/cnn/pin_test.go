package cnn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// weightsHash is the FNV-64a hash of the little-endian float64 bits of
// every parameter of the network, layer by layer.
func weightsHash(n *Network) string {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range n.layers {
		for _, p := range l.Params() {
			for _, v := range p.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// learnShapeNet trains a network at the learn benchmark's shape (40x40
// input, 4 base channels, 30 training images, 4 epochs at LR 0.01, seed
// 1) on the stripes task.
func learnShapeNet(t testing.TB) *Network {
	return trainStripes(t, 40, stripes(t, 30, 40, 1))
}

func trainStripes(t testing.TB, size int, examples []Example) *Network {
	net, err := New(Config{InputSize: size, Classes: 2, BaseChannels: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperTrain()
	cfg.LR = 0.01
	if err := net.Train(examples, cfg); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestTrainedWeightsPinned pins every trained weight bit at the learn
// shape, so a kernel rewrite that reorders any floating-point sum fails.
func TestTrainedWeightsPinned(t *testing.T) {
	if got, want := weightsHash(learnShapeNet(t)), "5ce255b32ae38e5d"; got != want {
		t.Fatalf("trained weights hash = %s, want %s", got, want)
	}
}

// BenchmarkCNNTrain times one training run at each of the learn
// benchmark's two input sides: 30 images, 4 base channels, 4 epochs.
func BenchmarkCNNTrain(b *testing.B) {
	for _, size := range []int{20, 40} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			examples := stripes(b, 30, size, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trainStripes(b, size, examples)
			}
		})
	}
}
