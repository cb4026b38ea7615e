package core

import (
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// countryFilterDataset builds a compressed multi-chunk store whose
// Country column segregates by chunk (per-user capture blocks shorter
// than the chunk size), so zone maps genuinely exclude chunks for most
// country-equality predicates.
func countryFilterDataset(t *testing.T) (*classify.Dataset, geo.Service) {
	t.Helper()
	ds := &classify.Dataset{FQDNs: classify.NewInterner()}
	ds.Countries = []geodata.Country{"DE", "ES", "GR", "US"}
	id := ds.FQDNs.ID("t.example.com")
	sink := classify.NewMemStoreCompressed(256)
	const captureRows = 256 // one user per chunk: tight per-chunk country ranges
	for i := 0; i < 4096; i++ {
		user := i / captureRows
		r := classify.Row{FQDN: id, IP: netsim.IP(1 + i%16), Country: uint8(user % 4)}
		if i%3 != 0 {
			r.Class = classify.ClassABP
		}
		sink.Append(r)
	}
	st, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}
	ds.Store = st
	locs := make(map[netsim.IP]geo.Location, 16)
	for i := 0; i < 16; i++ {
		loc := geo.Location{Country: "DE", Continent: geodata.EU28}
		if i%5 == 0 {
			loc = geo.Location{Country: "US", Continent: geodata.NorthAmerica}
		}
		locs[netsim.IP(1+i)] = loc
	}
	return ds, geo.Static{ServiceName: "test", Locations: locs}
}

// TestAnalyzeWhereCountryEquality pins the zone-map-pruned country
// scan to a plain row loop: for every country (including one the
// dataset never saw), AnalyzeCountry must produce exactly the analysis
// of joining each tracking row of that origin country through EachRow.
func TestAnalyzeWhereCountryEquality(t *testing.T) {
	ds, svc := countryFilterDataset(t)
	for _, c := range []geodata.Country{"DE", "ES", "GR", "US", "FR"} {
		want := NewAnalysis()
		ds.EachRow(func(_ int, r classify.Row) {
			if !r.Class.IsTracking() || ds.Countries[r.Country] != c {
				return
			}
			if loc, ok := svc.Locate(r.IP); ok {
				want.Add(c, loc.Country, 1)
			} else {
				want.AddUnknown(1)
			}
		})
		if got := AnalyzeCountry(ds, svc, c); !got.Equal(want) {
			t.Errorf("country=%s: pruned scan disagrees with the row loop (got %d flows, want %d)",
				c, got.Total(), want.Total())
		}
	}
}

// TestAnalyzeWhereUnknownCountryEmpty: a country absent from the
// dataset's interned table returns the empty analysis without scanning.
func TestAnalyzeWhereUnknownCountryEmpty(t *testing.T) {
	ds, svc := countryFilterDataset(t)
	a := AnalyzeCountry(ds, svc, "JP")
	if a.Total() != 0 || a.Unknown() != 0 {
		t.Errorf("unknown country: total=%d unknown=%d, want empty", a.Total(), a.Unknown())
	}
}
