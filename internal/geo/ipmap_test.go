package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// referenceIPMap is the IPmap kernel as it ran before the country-pair
// distance table: string countries, a haversine per distance, and the
// phase-2 refinement pool materialized per IP. The tests pin the
// production kernel to it bit for bit; BenchmarkIPMapLocateCold measures
// the production kernel against it.
type referenceIPMap struct {
	*IPMap
	candidates      []geodata.Country
	probesByCountry map[geodata.Country][]int
}

func newReferenceIPMap(m *IPMap) *referenceIPMap {
	r := &referenceIPMap{IPMap: m, probesByCountry: make(map[geodata.Country][]int)}
	for _, c := range geodata.AllCountries() {
		r.candidates = append(r.candidates, c.Code)
	}
	for i, p := range m.Mesh.Probes {
		r.probesByCountry[p.Country] = append(r.probesByCountry[p.Country], i)
	}
	return r
}

// referenceDistanceKm is geodata.DistanceKm without the table: two
// lookups and a haversine.
func referenceDistanceKm(a, b geodata.Country) float64 {
	ia, ok := geodata.Lookup(a)
	if !ok {
		return -1
	}
	ib, ok := geodata.Lookup(b)
	if !ok {
		return -1
	}
	return geodata.HaversineKm(ia.Lat, ia.Lon, ib.Lat, ib.Lon)
}

func (r *referenceIPMap) locate(ip netsim.IP) (Location, bool) {
	truth, ok := r.truthCountry(ip)
	if !ok {
		return Location{}, false
	}
	counts := make(map[geodata.Country]int)
	for _, v := range r.referenceVotes(ip, truth) {
		counts[v.Estimate]++
	}
	var winner geodata.Country
	bestN := -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < winner) {
			winner, bestN = c, n
		}
	}
	return locOf(winner), true
}

func (r *referenceIPMap) referenceVotes(ip netsim.IP, truth geodata.Country) []Vote {
	rng := rand.New(rand.NewSource(r.Seed ^ int64(ip)*0x9e3779b9))
	k := r.ProbesPerQuery
	if k <= 0 {
		k = 100
	}
	coarse := truth
	bestRTT := -1.0
	for i := 0; i < 25 && len(r.Mesh.Probes) > 0; i++ {
		p := r.Mesh.Probes[rng.Intn(len(r.Mesh.Probes))]
		rtt := r.minRTT(rng, p.Country, truth)
		if bestRTT < 0 || rtt < bestRTT {
			coarse, bestRTT = p.Country, rtt
		}
	}
	var regional []int
	for _, c := range r.candidates {
		if d := referenceDistanceKm(c, coarse); d >= 0 && d <= 2500 {
			regional = append(regional, r.probesByCountry[c]...)
		}
	}
	if len(regional) < 20 {
		regional = regional[:0]
		for i := range r.Mesh.Probes {
			regional = append(regional, i)
		}
	}
	votes := make([]Vote, 0, k)
	for i := 0; i < k; i++ {
		p := r.Mesh.Probes[regional[rng.Intn(len(regional))]]
		rtt := r.minRTT(rng, p.Country, truth)
		votes = append(votes, Vote{Probe: p, RTTms: rtt, Estimate: r.estimate(p, rtt)})
	}
	return votes
}

func (r *referenceIPMap) minRTT(rng *rand.Rand, from, to geodata.Country) float64 {
	best := r.RTT.MeasureKm(rng, referenceDistanceKm(from, to))
	for i := 0; i < 2; i++ {
		if v := r.RTT.MeasureKm(rng, referenceDistanceKm(from, to)); v < best {
			best = v
		}
	}
	return best
}

func (r *referenceIPMap) estimate(p Probe, rttMs float64) geodata.Country {
	best := p.Country
	bestErr := -1.0
	for _, cand := range r.candidates {
		minPossible := 0.0
		if d := referenceDistanceKm(p.Country, cand); d >= 0 {
			minPossible = geodata.MinRTTms(d)
		}
		if minPossible > rttMs {
			continue
		}
		expected := minPossible*1.3 + 5.5
		err := expected - rttMs
		if err < 0 {
			err = -err
		}
		if bestErr < 0 || err < bestErr {
			best, bestErr = cand, err
		}
	}
	return best
}

// referenceWorld deploys a tracker in every geodata country and in one
// country geodata does not know, plus the buildWorld majors, so every
// coarse country and the unknown-country paths get exercised.
func referenceWorld(t testing.TB) (*netsim.World, []netsim.IP) {
	t.Helper()
	w, ips := buildWorld(t)
	codes := []geodata.Country{"XX"}
	for _, c := range geodata.AllCountries() {
		codes = append(codes, c.Code)
	}
	for _, c := range codes {
		o := w.AddOrg("tracker-"+string(c), netsim.KindAdTech, c)
		d := w.Deploy(o, c, "", 28)
		ips = append(ips, d.Block.Nth(1), d.Block.Nth(9))
	}
	w.Freeze()
	ips = append(ips, w.EyeballBlock("DE").Nth(5), w.EyeballBlock("AU").Nth(5))
	return w, ips
}

// sparseMesh has three probes in every other geodata country and a few
// in a country geodata does not know: remote coarse countries fall back
// to the whole mesh, unknown-country probes get tasked.
func sparseMesh() *ProbeMesh {
	var mesh ProbeMesh
	for i, c := range geodata.AllCountries() {
		if i%2 == 0 {
			for j := 0; j < 3; j++ {
				mesh.Probes = append(mesh.Probes, Probe{Country: c.Code})
			}
		}
		if i%10 == 0 {
			mesh.Probes = append(mesh.Probes, Probe{Country: "XX"})
		}
	}
	return &mesh
}

func TestIPMapMatchesReferenceKernel(t *testing.T) {
	w, ips := referenceWorld(t)
	unknownOnly := &ProbeMesh{Probes: []Probe{{"XX"}, {"QQ"}, {"XX"}}}
	cases := []struct {
		name  string
		mesh  *ProbeMesh
		perIP int
	}{
		{"default", DefaultMesh(), 0},
		{"sparse+unknown", sparseMesh(), 0},
		{"unknown-only", unknownOnly, 0},
		{"default/37", DefaultMesh(), 37},
		{"sparse+unknown/37", sparseMesh(), 37},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewIPMap(w, tc.mesh)
			if tc.perIP > 0 {
				m.ProbesPerQuery = tc.perIP
			}
			ref := newReferenceIPMap(NewIPMap(w, tc.mesh))
			ref.ProbesPerQuery = m.ProbesPerQuery
			for _, ip := range ips {
				got, ok := m.MeasureVotes(ip)
				truth, _ := ref.truthCountry(ip)
				want := ref.referenceVotes(ip, truth)
				if !ok || len(got) != len(want) {
					t.Fatalf("%s: %d votes ok=%v, reference %d", ip, len(got), ok, len(want))
				}
				for i := range got {
					g, r := got[i], want[i]
					if g.Probe != r.Probe || math.Float64bits(g.RTTms) != math.Float64bits(r.RTTms) || g.Estimate != r.Estimate {
						t.Fatalf("%s vote %d = %+v, reference %+v", ip, i, g, r)
					}
				}
				gl, gok := m.Locate(ip)
				rl, rok := ref.locate(ip)
				if gl != rl || gok != rok {
					t.Fatalf("%s: Locate = %+v %v, reference %+v %v", ip, gl, gok, rl, rok)
				}
			}
		})
	}
}

func TestIPMapConcurrentColdLocate(t *testing.T) {
	w, ips := referenceWorld(t)
	mesh := DefaultMesh()
	seq := NewIPMap(w, mesh)
	want := make(map[netsim.IP]Location, len(ips))
	for _, ip := range ips {
		want[ip], _ = seq.Locate(ip)
	}

	m := NewIPMap(w, mesh)
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker covers half the IPs from its own offset, so
			// every IP is located by several workers, cold or cached.
			for i := 0; i < len(ips)/2; i++ {
				ip := ips[(g*len(ips)/workers+i)%len(ips)]
				if got, ok := m.Locate(ip); !ok || got != want[ip] {
					errs <- fmt.Errorf("worker %d: Locate(%s) = %+v %v, sequential %+v", g, ip, got, ok, want[ip])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkIPMapLocateCold builds a fresh IPMap per op and locates every
// IP of referenceWorld once, so each Locate runs the full measurement;
// /reference runs the kernel before the country-pair table.
func BenchmarkIPMapLocateCold(b *testing.B) {
	w, ips := referenceWorld(b)
	mesh := DefaultMesh()
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewIPMap(w, mesh)
			for _, ip := range ips {
				m.Locate(ip)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := newReferenceIPMap(NewIPMap(w, mesh))
			for _, ip := range ips {
				r.locate(ip)
			}
		}
	})
}
