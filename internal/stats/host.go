package stats

import "ossd/internal/trace"

// Host is the host-visible completion accounting every media model
// keeps: request and free counts, host bytes moved, response-time
// histograms by direction, and the per-tenant breakdown. The substrates
// embed it in their Metrics, so one conversion turns any of them into a
// device-independent snapshot.
type Host struct {
	// Completed counts finished requests, including frees.
	Completed int64
	// Frees counts completed free (deallocation) notifications.
	Frees int64
	// BytesRead and BytesWritten count host data moved.
	BytesRead, BytesWritten int64
	// ReadResp and WriteResp are response-time histograms in
	// milliseconds, by operation type.
	ReadResp, WriteResp Histogram
	// Tenants breaks completed host transfers down per tenant class.
	Tenants TenantSet
}

// Record folds one completed host request with response time ms into
// the accounting: every request counts as completed, a free counts as a
// free, and a read or write adds its bytes and response time both
// overall and for its tenant.
func (h *Host) Record(op trace.Op, ms float64) {
	h.Completed++
	switch op.Kind {
	case trace.Read:
		h.ReadResp.Add(ms)
		h.BytesRead += op.Size
		h.Tenants.Record(op.Tenant, false, op.Size, ms)
	case trace.Write:
		h.WriteResp.Add(ms)
		h.BytesWritten += op.Size
		h.Tenants.Record(op.Tenant, true, op.Size, ms)
	case trace.Free:
		h.Frees++
	}
}
