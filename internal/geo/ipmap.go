package geo

import (
	"math/rand"
	"sync"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// Probe is one active measurement vantage point (a RIPE Atlas probe).
type Probe struct {
	Country geodata.Country
}

// ProbeMesh is the global probe deployment. The RIPE Atlas footprint is
// dense in Europe (>5K probes), substantial in North America (>1K) and
// sparse elsewhere (§3.4); DefaultMesh reproduces those proportions.
type ProbeMesh struct {
	Probes []Probe
}

// DefaultMesh builds an ~11K-probe mesh with the Atlas-like distribution:
// probe count per country proportional to infrastructure density, with
// Europe over-represented.
func DefaultMesh() *ProbeMesh {
	var mesh ProbeMesh
	for _, c := range geodata.AllCountries() {
		weight := c.InfraDensity
		switch c.Continent {
		case geodata.EU28, geodata.RestOfEurope:
			weight *= 4 // Atlas's European density
		case geodata.NorthAmerica:
			weight *= 1
		default:
			weight = weight / 2
		}
		n := weight * 2
		if n < 2 {
			n = 2 // every country has at least a couple of probes
		}
		for i := 0; i < n; i++ {
			mesh.Probes = append(mesh.Probes, Probe{Country: c.Code})
		}
	}
	return &mesh
}

// IPMap emulates RIPE IPmap's active geolocation: for each target IP it
// tasks ~ProbesPerQuery probes, each probe measures RTT to the target and
// produces a location estimate (the candidate country whose expected RTT
// best explains the measurement, subject to the speed-of-light bound), and
// the coordinator majority-votes the estimates (§3.4).
type IPMap struct {
	World *netsim.World
	Mesh  *ProbeMesh
	RTT   netsim.RTTModel
	// ProbesPerQuery is the number of probes tasked per IP (default 100,
	// as the paper reports).
	ProbesPerQuery int
	// Seed makes the probe sampling deterministic per IP.
	Seed int64

	mu    sync.Mutex
	cache map[netsim.IP]Location

	candidates []geodata.Country // every country, by geodata dense id
	// probeCountry is each mesh probe's dense country id, -1 when the
	// country is unknown to geodata.
	probeCountry []int32
	// meshByCountry lists each country's mesh indices in mesh order,
	// by dense id.
	meshByCountry [][]int32
	// pools is the phase-2 refinement pool of each coarse country, by
	// dense id; nil means the whole mesh.
	pools [][]poolSpan
}

// poolSpan is one country's share of a refinement pool: the pool
// positions from the previous span's end up to end are the country's
// probes, in mesh order.
type poolSpan struct{ country, end int32 }

// NewIPMap builds the active geolocator over the world's ground truth.
func NewIPMap(w *netsim.World, mesh *ProbeMesh) *IPMap {
	all := geodata.AllCountries()
	m := &IPMap{
		World:          w,
		Mesh:           mesh,
		ProbesPerQuery: 100,
		Seed:           42,
		cache:          make(map[netsim.IP]Location),
		candidates:     make([]geodata.Country, len(all)),
		probeCountry:   make([]int32, len(mesh.Probes)),
		meshByCountry:  make([][]int32, len(all)),
		pools:          make([][]poolSpan, len(all)),
	}
	for i, c := range all {
		m.candidates[i] = c.Code
	}
	for i, p := range mesh.Probes {
		c, ok := geodata.Index(p.Country)
		if !ok {
			m.probeCountry[i] = -1
			continue
		}
		m.probeCountry[i] = int32(c)
		m.meshByCountry[c] = append(m.meshByCountry[c], int32(i))
	}
	// IPmap tasks probes near the presumed location: the countries within
	// 2500 km of the coarse country, in candidate order; a region with
	// fewer than 20 probes falls back to the whole mesh.
	for coarse := range all {
		row := geodata.DistanceRow(coarse)
		var spans []poolSpan
		end := 0
		for c, probes := range m.meshByCountry {
			if d := row[c]; d >= 0 && d <= 2500 && len(probes) > 0 {
				end += len(probes)
				spans = append(spans, poolSpan{int32(c), int32(end)})
			}
		}
		if end >= 20 {
			m.pools[coarse] = spans
		}
	}
	return m
}

// Name implements Service.
func (m *IPMap) Name() string { return "ripe-ipmap" }

// Locate implements Service. Results are cached; the measurement for a
// given IP is deterministic under the configured seed.
func (m *IPMap) Locate(ip netsim.IP) (Location, bool) {
	m.mu.Lock()
	if loc, ok := m.cache[ip]; ok {
		m.mu.Unlock()
		return loc, true
	}
	m.mu.Unlock()

	truthCountry, ok := m.truthCountry(ip)
	if !ok {
		return Location{}, false
	}
	loc := m.measure(ip, truthCountry)

	m.mu.Lock()
	m.cache[ip] = loc
	m.mu.Unlock()
	return loc, true
}

func (m *IPMap) truthCountry(ip netsim.IP) (geodata.Country, bool) {
	if d, ok := m.World.LocateIP(ip); ok {
		return d.Country, true
	}
	if c := m.World.EyeballCountry(ip); c != "" {
		return c, true
	}
	return "", false
}

// Vote is one probe's reply.
type Vote struct {
	Probe    Probe
	RTTms    float64
	Estimate geodata.Country
}

// MeasureVotes runs the per-probe estimation for an IP and returns the
// raw votes; Locate uses the majority. Exposed for the agreement analysis
// and tests.
func (m *IPMap) MeasureVotes(ip netsim.IP) ([]Vote, bool) {
	truth, ok := m.truthCountry(ip)
	if !ok {
		return nil, false
	}
	return m.votes(ip, truth), true
}

func (m *IPMap) votes(ip netsim.IP, truth geodata.Country) []Vote {
	// Per-IP deterministic RNG: same IP, same probes, same jitter.
	rng := rand.New(rand.NewSource(m.Seed ^ int64(ip)*0x9e3779b9))
	k := m.ProbesPerQuery
	if k <= 0 {
		k = 100
	}
	to, ok := geodata.Index(truth)
	if !ok {
		to = -1
	}
	probes := m.Mesh.Probes

	// Phase 1 — coarse localization: a couple dozen random probes
	// measure; the country of the minimum-RTT probe anchors the region.
	coarse := to // fallback, only when mesh is empty
	bestRTT := -1.0
	for i := 0; i < 25 && len(probes) > 0; i++ {
		p := rng.Intn(len(probes))
		rtt := m.minRTT(rng, m.distance(p, to))
		if bestRTT < 0 || rtt < bestRTT {
			coarse, bestRTT = int(m.probeCountry[p]), rtt
		}
	}

	// Phase 2 — refinement: sample k probes from the coarse country's
	// pool (see NewIPMap).
	var pool []poolSpan
	size := len(probes)
	if coarse >= 0 && m.pools[coarse] != nil {
		pool = m.pools[coarse]
		size = int(pool[len(pool)-1].end)
	}
	votes := make([]Vote, 0, k)
	for i := 0; i < k; i++ {
		p := m.poolProbe(pool, rng.Intn(size))
		rtt := m.minRTT(rng, m.distance(p, to))
		votes = append(votes, Vote{Probe: probes[p], RTTms: rtt, Estimate: m.estimate(p, rtt)})
	}
	return votes
}

// poolProbe resolves a position in a refinement pool to a mesh index; a
// nil pool is the whole mesh.
func (m *IPMap) poolProbe(pool []poolSpan, pos int) int {
	start := 0
	for _, s := range pool {
		if pos < int(s.end) {
			return int(m.meshByCountry[s.country][pos-start])
		}
		start = int(s.end)
	}
	return pos
}

// noDistances stands in for the distance row of a probe whose country
// geodata does not know: every distance is unknown (-1).
var noDistances = func() []float64 {
	row := make([]float64, len(geodata.AllCountries()))
	for i := range row {
		row[i] = -1
	}
	return row
}()

// distanceRow is mesh probe p's row of the country-pair distance table.
func (m *IPMap) distanceRow(p int) []float64 {
	if c := m.probeCountry[p]; c >= 0 {
		return geodata.DistanceRow(int(c))
	}
	return noDistances
}

// distance is mesh probe p's distance to the country with dense id to, or
// -1 if either country is unknown, as geodata.DistanceKm reports it.
func (m *IPMap) distance(p, to int) float64 {
	if to < 0 {
		return -1
	}
	return m.distanceRow(p)[to]
}

// minRTT is a probe's measurement over distance d: the minimum of three
// pings, the standard way active geolocation suppresses queueing jitter.
func (m *IPMap) minRTT(rng *rand.Rand, d float64) float64 {
	best := m.RTT.MeasureKm(rng, d)
	for i := 0; i < 2; i++ {
		if r := m.RTT.MeasureKm(rng, d); r < best {
			best = r
		}
	}
	return best
}

// estimate implements mesh probe p's reasoning: among candidate countries
// whose speed-of-light minimum does not exceed the measured RTT, pick the
// one whose expected RTT best matches the measurement.
func (m *IPMap) estimate(p int, rttMs float64) geodata.Country {
	best := m.Mesh.Probes[p].Country
	bestErr := -1.0
	for cand, d := range m.distanceRow(p) {
		// MinRTTms of an unknown (-1) distance is 0: a country without
		// coordinates is never excluded.
		minPossible := geodata.MinRTTms(d)
		if minPossible > rttMs {
			continue // physically impossible, candidate excluded
		}
		// Expected minimum-of-pings RTT: propagation with path stretch
		// plus the last-mile floor and a small residual-jitter allowance.
		expected := minPossible*1.3 + 5.5
		err := expected - rttMs
		if err < 0 {
			err = -err
		}
		if bestErr < 0 || err < bestErr {
			best, bestErr = m.candidates[cand], err
		}
	}
	return best
}

// measure majority-votes the probes' estimates.
func (m *IPMap) measure(ip netsim.IP, truth geodata.Country) Location {
	votes := m.votes(ip, truth)
	counts := make(map[geodata.Country]int)
	for _, v := range votes {
		counts[v.Estimate]++
	}
	var winner geodata.Country
	bestN := -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < winner) {
			winner, bestN = c, n
		}
	}
	return locOf(winner)
}
