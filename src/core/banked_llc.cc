#include "core/banked_llc.hh"

#include "util/logging.hh"

namespace bvc
{

BankedLlc::BankedLlc(std::vector<std::unique_ptr<Llc>> banks,
                     unsigned bankShift)
    : Llc("llc"), bankShift_(bankShift), aggregate_("llc")
{
    panicIf(banks.empty() || (banks.size() & (banks.size() - 1)) != 0,
            "BankedLlc: bank count must be a nonzero power of two");
    banks_.reserve(banks.size());
    for (auto &bank : banks) {
        panicIf(bank == nullptr, "BankedLlc: null bank");
        auto slot = std::make_unique<Bank>();
        slot->llc = std::move(bank);
        banks_.push_back(std::move(slot));
    }
    // Every bank runs the same model, so bank 0's group names them all.
    aggregate_ = bank(0).stats();
}

BankedLlc::~BankedLlc() = default;

LlcResult
BankedLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    Bank &bank = *banks_[bankOf(blk)];
    MutexLock lock(bank.mutex);
    return lockedBank(bank).access(blk, type, data);
}

bool
BankedLlc::probe(Addr blk) const
{
    const Bank &bank = *banks_[bankOf(blk)];
    MutexLock lock(bank.mutex);
    return lockedBank(bank).probe(blk);
}

bool
BankedLlc::probeBase(Addr blk) const
{
    const Bank &bank = *banks_[bankOf(blk)];
    MutexLock lock(bank.mutex);
    return lockedBank(bank).probeBase(blk);
}

void
BankedLlc::downgradeHint(Addr blk)
{
    Bank &bank = *banks_[bankOf(blk)];
    MutexLock lock(bank.mutex);
    lockedBank(bank).downgradeHint(blk);
}

LlcResult
BankedLlc::coherenceInvalidate(Addr blk)
{
    Bank &bank = *banks_[bankOf(blk)];
    MutexLock lock(bank.mutex);
    return lockedBank(bank).coherenceInvalidate(blk);
}

void
BankedLlc::resetStats()
{
    for (const auto &slot : banks_) {
        Bank &bank = *slot;
        MutexLock lock(bank.mutex);
        lockedBank(bank).resetStats();
    }
    aggregate_.resetAll();
}

std::size_t
BankedLlc::validLines() const
{
    std::size_t total = 0;
    for (const auto &slot : banks_) {
        const Bank &bank = *slot;
        MutexLock lock(bank.mutex);
        total += lockedBank(bank).validLines();
    }
    return total;
}

std::string
BankedLlc::name() const
{
    // Lock the bank even for this metadata read: name() may be called
    // while another thread is mid-access in bank 0, and the contract
    // says every dereference of a bank holds its capability.
    const Bank &bank = *banks_.front();
    MutexLock lock(bank.mutex);
    return lockedBank(bank).name();
}

void
BankedLlc::rebuildAggregate() const
{
    aggregate_.resetAll();
    for (const auto &slot : banks_) {
        // Per-bank lock: summing a bank's counters while another
        // thread is mid-access in it would read half-updated stats
        // (and trips TSan). Each bank's slice is consistent; the
        // cross-bank cut is only a snapshot under the one-host-thread
        // measurement contract (header comment).
        const Bank &bank = *slot;
        MutexLock lock(bank.mutex);
        aggregate_ += lockedBank(bank).stats();
    }
}

StatGroup &
BankedLlc::stats()
{
    rebuildAggregate();
    return aggregate_;
}

const StatGroup &
BankedLlc::stats() const
{
    rebuildAggregate();
    return aggregate_;
}

} // namespace bvc
