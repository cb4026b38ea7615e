package netsim

import (
	"math/rand"

	"crossborder/internal/geodata"
)

// RTTModel produces synthetic round-trip times between countries. The
// model is the standard geolocation-constraint one: propagation delay is
// bounded below by great-circle distance at ~100 km per RTT millisecond,
// plus a last-mile/queueing component. Active geolocation (internal/geo)
// relies on the lower bound being physically sound: a probe can never
// measure an RTT lower than the speed-of-light limit.
type RTTModel struct {
	// LastMileMs is the fixed access-network latency added to every
	// measurement (default 4ms when zero).
	LastMileMs float64
	// JitterMs is the upper bound of uniform random queueing delay
	// (default 6ms when zero).
	JitterMs float64
	// PathStretch multiplies the great-circle propagation delay to model
	// non-ideal fibre routes (default 1.3 when zero).
	PathStretch float64
}

func (m RTTModel) lastMile() float64 {
	if m.LastMileMs <= 0 {
		return 4
	}
	return m.LastMileMs
}

func (m RTTModel) jitter() float64 {
	if m.JitterMs <= 0 {
		return 6
	}
	return m.JitterMs
}

func (m RTTModel) stretch() float64 {
	if m.PathStretch <= 0 {
		return 1.3
	}
	return m.PathStretch
}

// Measure returns one RTT sample in milliseconds between two countries.
// rng supplies the jitter; results are always >= the physical minimum for
// the distance.
func (m RTTModel) Measure(rng *rand.Rand, from, to geodata.Country) float64 {
	return m.MeasureKm(rng, geodata.DistanceKm(from, to))
}

// MeasureKm is Measure over an already-known great-circle distance, as
// geodata.DistanceKm reports it: a negative distance (unknown country)
// behaves like an intercontinental path so the geolocator cannot
// accidentally "confirm" a bogus location.
func (m RTTModel) MeasureKm(rng *rand.Rand, d float64) float64 {
	if d < 0 {
		d = 9000
	}
	base := geodata.MinRTTms(d) * m.stretch()
	return base + m.lastMile() + rng.Float64()*m.jitter()
}
