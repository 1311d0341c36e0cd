/**
 * @file
 * Free-listed pool of reusable slots addressed by index.
 *
 * Hot-path owners (device media jobs, dispatcher callbacks, UserLib
 * direct requests) keep per-operation state in a slot and hand the
 * index to events and callbacks instead of the state itself. A released
 * slot keeps its storage (vector capacity, inline callback buffer) for
 * the next acquire(), so steady-state reuse never allocates.
 *
 * Indices stay valid while a slot is held; references do not survive an
 * acquire(), which may grow (and so move) the pool.
 */

#ifndef BPD_SIM_SLOT_POOL_HPP
#define BPD_SIM_SLOT_POOL_HPP

#include <cstdint>
#include <vector>

namespace bpd::sim {

template <typename T>
class SlotPool
{
  public:
    /** The index the next acquire() returns, without taking it. */
    std::uint32_t
    peek() const
    {
        return free_ != kNone ? free_ : size();
    }

    /** Take a slot; its value holds whatever the last user left. */
    std::uint32_t
    acquire()
    {
        if (free_ == kNone) {
            slots_.emplace_back();
            return size() - 1;
        }
        const std::uint32_t i = free_;
        free_ = slots_[i].nextFree;
        return i;
    }

    /** Return slot @p i to the pool (its value is kept for reuse). */
    void
    release(std::uint32_t i)
    {
        slots_[i].nextFree = free_;
        free_ = i;
    }

    T &operator[](std::uint32_t i) { return slots_[i].value; }

    /** Slots ever created (held + free). */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    struct Slot
    {
        T value{};
        std::uint32_t nextFree = kNone;
    };

    std::vector<Slot> slots_;
    std::uint32_t free_ = kNone;
};

} // namespace bpd::sim

#endif // BPD_SIM_SLOT_POOL_HPP
