#include "kernels/engine.hh"

#include "trace/trace_file.hh"

namespace rfl::kernels
{

void
SimEngine::materializePending()
{
    // At most 9 records; the callers flush the batch first, so capacity
    // is never an issue (capacity >> 9).
    for (size_t idx = 0; idx < pendingFp_.size(); ++idx) {
        if (pendingFp_[idx]) {
            batch_.pushFp(core_, static_cast<int>(idx >> 1),
                          (idx & 1) != 0, pendingFp_[idx]);
            pendingFp_[idx] = 0;
        }
    }
    if (pendingOther_) {
        batch_.pushOther(core_, pendingOther_);
        pendingOther_ = 0;
    }
}

void
SimEngine::flush()
{
    // Producer hint: in dependent-access mode the consume loop must not
    // coalesce (each access's exposed latency is the modeled quantity).
    // Only reachable with a non-empty batch while recording — the
    // bypass otherwise routes dependent accesses straight to the
    // machine — but setting it unconditionally keeps the invariant
    // local. Not serialized; replay re-derives it from machine state.
    batch_.dependent = machine_.dependentAccesses();
    if (!batch_.empty()) {
        if (writer_)
            writer_->append(batch_);
        // Simulating in place is safe: the machine's data path never
        // drains batch sources, so nothing re-enters this engine
        // mid-consume. The core override is a fact, not a remap — every
        // record in this batch carries core_ — and lets the consume
        // loop skip span detection.
        machine_.simulateBatch(batch_, core_);
        batch_.clear();
    }
    // Deferred retirements ride in a trailing mini-batch of their own
    // (they commute with everything that preceded them; see onFp).
    materializePending();
    if (!batch_.empty()) {
        if (writer_)
            writer_->append(batch_);
        machine_.simulateBatch(batch_, core_);
        batch_.clear();
    }
}

void
SimEngine::emitBatch(const trace::AccessBatch &b)
{
    if (b.empty())
        return;
    if (dispatch_ == Dispatch::Batched) {
        flush();
        if (writer_)
            writer_->append(b);
    }
    machine_.simulateBatch(b, core_);
}

} // namespace rfl::kernels
