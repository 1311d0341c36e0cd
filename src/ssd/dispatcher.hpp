/**
 * @file
 * Per-queue command dispatcher: owns one queue pair, assigns command ids
 * and routes push-style completions back to per-command callbacks. Every
 * engine (kernel driver, UserLib, SPDK, fabric target, Moneta-D, VMM)
 * holds its queues through one, from NvmeDevice::openQueue().
 *
 * Pending callbacks live in a sim::SlotPool; the slot index rides in Command::tag and comes back in Completion::tag,
 * so routing a completion is an index, not a hash lookup. Callbacks are
 * move-only InlineFunctions: the common capture shapes are stored in
 * place and a steady-state submit/complete cycle does not allocate.
 */

#ifndef BPD_SSD_DISPATCHER_HPP
#define BPD_SSD_DISPATCHER_HPP

#include "sim/inline_function.hpp"
#include "sim/logging.hpp"
#include "sim/slot_pool.hpp"
#include "ssd/nvme.hpp"

namespace bpd::ssd {

/** Inline storage for completion callbacks; larger captures go to the heap. */
constexpr std::size_t kCompletionInlineBytes = 64;

class CommandDispatcher
{
  public:
    using CompletionFn
        = sim::InlineFunction<void(const Completion &), kCompletionInlineBytes>;

    /** Take ownership of @p qp and route its completions. */
    explicit CommandDispatcher(QueuePair &qp) : qp_(qp)
    {
        qp_.setCompletionHook(
            [this](const Completion &c) { complete(c); });
    }

    /**
     * Detach the completion hook, then release the queue. A queue with
     * commands in flight is released only once they drain
     * (NvmeDevice::destroyQueuePair); detaching first sends those
     * completions to the CQ instead of into this freed dispatcher.
     */
    ~CommandDispatcher()
    {
        qp_.setCompletionHook(nullptr);
        qp_.dev_.destroyQueuePair(qp_.qid());
    }

    CommandDispatcher(const CommandDispatcher &) = delete;
    CommandDispatcher &operator=(const CommandDispatcher &) = delete;

    QueuePair &queue() { return qp_; }

    /**
     * Submit with a per-command completion callback.
     * @retval false when the SQ is full; @p fn is then left untouched,
     *     so the caller can retry with it later.
     *
     * The cid is consumed only once the queue accepts the command: a
     * refused submit must not burn an id, or the cid stream of a config
     * that hits SQ-full drifts from one that does not, poisoning
     * replay/digest comparisons between them.
     */
    bool
    submit(Command cmd, CompletionFn &&fn)
    {
        // Take the slot only once the queue accepts: slots never
        // outnumber the commands in flight at once.
        cmd.cid = nextCid_;
        cmd.tag = slots_.peek();
        if (!qp_.submit(cmd))
            return false;
        Pending &p = slots_[slots_.acquire()];
        p.cid = nextCid_++;
        p.fn = std::move(fn);
        outstanding_++;
        return true;
    }

    std::size_t outstanding() const { return outstanding_; }

  private:
    struct Pending
    {
        CompletionFn fn;
        std::uint64_t cid = 0;
    };

    /** Route one completion: free its slot, then run its callback. */
    void
    complete(const Completion &c)
    {
        sim::panicIf(c.tag >= slots_.size() || !slots_[c.tag].fn
                         || slots_[c.tag].cid != c.cid,
                     "completion for unknown command id");
        // Move out first: the callback may submit, which can reuse the
        // slot or grow the pool.
        CompletionFn fn = std::move(slots_[c.tag].fn);
        slots_.release(c.tag);
        outstanding_--;
        fn(c);
    }

    QueuePair &qp_;
    std::uint64_t nextCid_ = 1;
    sim::SlotPool<Pending> slots_;
    std::size_t outstanding_ = 0;
};

} // namespace bpd::ssd

#endif // BPD_SSD_DISPATCHER_HPP
