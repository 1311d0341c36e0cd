/**
 * @file
 * Per-queue command dispatcher: owns one queue pair, assigns command ids
 * and routes push-style completions back to per-command callbacks. Every
 * engine (kernel driver, UserLib, SPDK, fabric target, Moneta-D, VMM)
 * holds its queues through one, from NvmeDevice::openQueue().
 */

#ifndef BPD_SSD_DISPATCHER_HPP
#define BPD_SSD_DISPATCHER_HPP

#include <functional>
#include <unordered_map>

#include "sim/logging.hpp"
#include "ssd/nvme.hpp"

namespace bpd::ssd {

class CommandDispatcher
{
  public:
    using CompletionFn = std::function<void(const Completion &)>;

    /** Take ownership of @p qp and route its completions. */
    explicit CommandDispatcher(QueuePair &qp) : qp_(qp)
    {
        qp_.setCompletionHook([this](const Completion &c) {
            auto it = pending_.find(c.cid);
            sim::panicIf(it == pending_.end(),
                         "completion for unknown command id");
            CompletionFn fn = std::move(it->second);
            pending_.erase(it);
            fn(c);
        });
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
     * @retval false when the SQ is full (callback not retained).
     *
     * The cid is consumed only once the queue accepts the command: a
     * refused submit must not burn an id, or the cid stream of a config
     * that hits SQ-full drifts from one that does not, poisoning
     * replay/digest comparisons between them.
     */
    bool
    submit(Command cmd, CompletionFn fn)
    {
        cmd.cid = nextCid_;
        if (!qp_.submit(cmd))
            return false;
        nextCid_++;
        pending_[cmd.cid] = std::move(fn);
        return true;
    }

    std::size_t outstanding() const { return pending_.size(); }

  private:
    QueuePair &qp_;
    std::uint64_t nextCid_ = 1;
    std::unordered_map<std::uint64_t, CompletionFn> pending_;
};

} // namespace bpd::ssd

#endif // BPD_SSD_DISPATCHER_HPP
