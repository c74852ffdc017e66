package experiments

// CatalogEntry names one runnable experiment: its paper artifact ID, a
// one-line description, and a runner taking the workload seed and the
// worker budget for its internal fan-out.
type CatalogEntry struct {
	ID          string
	Description string
	Run         func(seed int64, workers int) (Result, error)
}

// Catalog returns every experiment in report order — the one list
// behind cmd/repro and the service's /experiments endpoints.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		entry("contract", "Table 1: unwritten-contract terms probed on disk, RAID, MEMS, and SSD", Contract),
		entry("table2", "Table 2: sequential vs random bandwidth across device profiles", Table2),
		entry("swtf", "Section 3.2: SWTF vs FCFS scheduling", SWTF),
		entry("figure2", "Figure 2: write-amplification saw-tooth (bandwidth vs write size)", Figure2),
		entry("table3", "Table 3: aligned vs unaligned writes across sequentiality", Table3),
		entry("table4", "Table 4: alignment improvement on macro workloads", Table4),
		entry("table5", "Table 5: informed cleaning with free-page information", Table5),
		entry("figure3", "Figure 3 + Table 6: priority-aware cleaning", Figure3),
		entry("schemes", "Extension: page/hybrid/block FTL mapping schemes compared", Schemes),
		entry("lifetime", "Extension: endurance under skewed writes (wear-leveling, SLC vs MLC)", Lifetime),
		entry("faultlife", "Extension: accelerated lifetime under wear ceilings (fault plans)", FaultLife),
		entry("interference", "Extension: multi-tenant interference and fair-share isolation", Interference),
	}
}

// entry adapts an experiment's typed runner to the catalog's Result form.
func entry[R Result](id, description string, run func(seed int64, workers int) (R, error)) CatalogEntry {
	return CatalogEntry{id, description, func(seed int64, workers int) (Result, error) {
		return run(seed, workers)
	}}
}

// CatalogEntryByID looks an experiment up by its artifact ID.
func CatalogEntryByID(id string) (CatalogEntry, bool) {
	for _, e := range Catalog() {
		if e.ID == id {
			return e, true
		}
	}
	return CatalogEntry{}, false
}
