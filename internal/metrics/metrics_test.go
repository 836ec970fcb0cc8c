package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTotalVariationDistance(t *testing.T) {
	p := Distribution{"00": 0.5, "11": 0.5}
	q := Distribution{"00": 0.5, "11": 0.5}
	if d := TotalVariationDistance(p, q); d != 0 {
		t.Fatalf("identical distributions TVD = %v", d)
	}
	r := Distribution{"01": 1}
	if d := TotalVariationDistance(p, r); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint distributions TVD = %v, want 1", d)
	}
}

func TestTVDProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Distribution {
			d := Distribution{}
			for _, k := range []string{"00", "01", "10", "11"} {
				d[k] = rng.Float64()
			}
			d.Normalize()
			return d
		}
		p, q := mk(), mk()
		d1 := TotalVariationDistance(p, q)
		d2 := TotalVariationDistance(q, p)
		return d1 >= -1e-12 && d1 <= 1+1e-12 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntropyMinimizedAtIdeal(t *testing.T) {
	ideal := Distribution{"00": 0.7, "11": 0.3}
	self := CrossEntropy(ideal, ideal)
	if math.Abs(self-Entropy(ideal)) > 1e-9 {
		t.Fatalf("CE(p,p) = %v, want H(p) = %v", self, Entropy(ideal))
	}
	worse := Distribution{"00": 0.3, "11": 0.7}
	if CrossEntropy(ideal, worse) <= self {
		t.Fatal("cross entropy must increase for mismatched distribution")
	}
	uniform := Distribution{"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
	if CrossEntropy(ideal, uniform) <= self {
		t.Fatal("uniform output must have higher cross entropy")
	}
}

func TestCrossEntropyHandlesMissingMass(t *testing.T) {
	ideal := Distribution{"00": 1}
	measured := Distribution{"11": 1}
	ce := CrossEntropy(ideal, measured)
	if math.IsInf(ce, 0) || math.IsNaN(ce) {
		t.Fatalf("cross entropy not finite: %v", ce)
	}
	if ce < 5 {
		t.Fatalf("cross entropy %v too small for disjoint support", ce)
	}
}

func TestSuccessProbability(t *testing.T) {
	d := Distribution{"0101": 0.8, "1111": 0.2}
	if got := SuccessProbability(d, "0101"); got != 0.8 {
		t.Fatalf("success = %v", got)
	}
	if got := SuccessProbability(d, "0000"); got != 0 {
		t.Fatalf("missing outcome success = %v", got)
	}
}

func TestMitigateReadoutRecoversCleanDistribution(t *testing.T) {
	// True distribution: P(00)=P(11)=0.5 (Bell). Apply known confusion,
	// mitigate, compare.
	flip := []float64{0.05, 0.08}
	true_ := Distribution{"00": 0.5, "11": 0.5}
	noisy := Distribution{}
	for k, p := range true_ {
		for o0 := 0; o0 < 2; o0++ {
			for o1 := 0; o1 < 2; o1++ {
				q := p
				if byte('0'+o0) != k[0] {
					q *= flip[0]
				} else {
					q *= 1 - flip[0]
				}
				if byte('0'+o1) != k[1] {
					q *= flip[1]
				} else {
					q *= 1 - flip[1]
				}
				key := string([]byte{byte('0' + o0), byte('0' + o1)})
				noisy[key] += q
			}
		}
	}
	fixed, err := MitigateReadout(noisy, flip)
	if err != nil {
		t.Fatal(err)
	}
	if d := TotalVariationDistance(true_, fixed); d > 1e-9 {
		t.Fatalf("mitigation residual TVD %v", d)
	}
}

func TestMitigateReadoutImprovesSampledData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flip := []float64{0.06, 0.04}
	true_ := Distribution{"00": 0.5, "11": 0.5}
	counts := Distribution{}
	const shots = 20000
	for i := 0; i < shots; i++ {
		k := "00"
		if rng.Float64() < 0.5 {
			k = "11"
		}
		b := []byte(k)
		for q := 0; q < 2; q++ {
			if rng.Float64() < flip[q] {
				b[q] ^= 1
			}
		}
		counts[string(b)] += 1.0 / shots
	}
	before := TotalVariationDistance(true_, counts)
	fixed, err := MitigateReadout(counts, flip)
	if err != nil {
		t.Fatal(err)
	}
	after := TotalVariationDistance(true_, fixed)
	if after >= before {
		t.Fatalf("mitigation did not improve: before %v after %v", before, after)
	}
}

func TestMitigateReadoutValidation(t *testing.T) {
	if _, err := MitigateReadout(Distribution{"01": 1}, []float64{0.1}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := MitigateReadout(Distribution{"0": 1}, []float64{0.5}); err == nil {
		t.Fatal("expected singular confusion matrix error at flip=0.5")
	}
}

func TestBellStateError(t *testing.T) {
	perfect := Distribution{"00": 0.5, "11": 0.5}
	if e := BellStateError(perfect); e > 1e-12 {
		t.Fatalf("perfect Bell error %v", e)
	}
	bad := Distribution{"01": 0.5, "10": 0.5}
	if e := BellStateError(bad); math.Abs(e-1) > 1e-12 {
		t.Fatalf("orthogonal Bell error %v, want 1", e)
	}
	half := Distribution{"00": 0.25, "11": 0.25, "01": 0.25, "10": 0.25}
	if e := BellStateError(half); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("uniform Bell error %v, want 0.5", e)
	}
}

func TestTopOutcomes(t *testing.T) {
	d := Distribution{"a": 0.1, "b": 0.5, "c": 0.4}
	top := TopOutcomes(d, 2)
	if len(top) != 2 || top[0] != "b" || top[1] != "c" {
		t.Fatalf("top = %v", top)
	}
}

func TestNormalize(t *testing.T) {
	d := Distribution{"0": 2, "1": 6}
	d.Normalize()
	if math.Abs(d["0"]-0.25) > 1e-12 || math.Abs(d["1"]-0.75) > 1e-12 {
		t.Fatalf("normalized = %v", d)
	}
}

// TestMitigationBitIdenticalAcrossCalls guards the summation order: over a
// 7-bit histogram with 128 outcomes, map-order sums would give a different
// last bit from call to call, in the mitigated distribution, its TVD,
// cross-entropy and entropy.
func TestMitigationBitIdenticalAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nbits = 7
	measured, ideal := Distribution{}, Distribution{}
	flips := make([]float64, nbits)
	for i := range flips {
		flips[i] = 0.01 + 0.05*rng.Float64()
	}
	for x := 0; x < 1<<nbits; x++ {
		key := make([]byte, nbits)
		for i := range key {
			key[i] = byte('0' + x>>uint(i)&1)
		}
		measured[string(key)] = float64(1+rng.Intn(2048)) / 2048
		ideal[string(key)] = rng.Float64()
	}
	ideal.Normalize()
	var first Distribution
	var firstScores [3]float64
	for call := 0; call < 50; call++ {
		got, err := MitigateReadout(measured, flips)
		if err != nil {
			t.Fatal(err)
		}
		scores := [3]float64{TotalVariationDistance(ideal, got), CrossEntropy(ideal, got), Entropy(got)}
		if call == 0 {
			first, firstScores = got, scores
			continue
		}
		for i, name := range []string{"TVD", "cross-entropy", "entropy"} {
			if math.Float64bits(scores[i]) != math.Float64bits(firstScores[i]) {
				t.Fatalf("call %d: %s %v, first call %v", call, name, scores[i], firstScores[i])
			}
		}
		for k, v := range first {
			if math.Float64bits(got[k]) != math.Float64bits(v) {
				t.Fatalf("call %d: P(%s) = %v, first call %v", call, k, got[k], v)
			}
		}
	}
}
