#include "memory/dram.hh"

#include <algorithm>

namespace bvc
{

Dram::Dram(const DramTiming &timing, const DramGeometry &geometry)
    : timing_(timing),
      geometry_(geometry),
      banks_(geometry.channels * geometry.banksPerChannel),
      busReady_(geometry.channels, 0),
      stats_("dram", kStats.names)
{
}

unsigned
Dram::channelOf(Addr blk) const
{
    // Consecutive cache lines alternate channels for bandwidth.
    return static_cast<unsigned>((blk >> kLineShift) %
                                 geometry_.channels);
}

unsigned
Dram::bankOf(Addr blk) const
{
    // Bank bits sit above the column bits: sequential lines share a
    // bank (and row) until the row span is exhausted.
    return static_cast<unsigned>(
        (blk >> geometry_.columnShift) % geometry_.banksPerChannel);
}

std::uint64_t
Dram::rowOf(Addr blk) const
{
    unsigned bankBits = 0;
    while ((1u << bankBits) < geometry_.banksPerChannel)
        ++bankBits;
    return blk >> (geometry_.columnShift + bankBits);
}

Cycle
Dram::service(Addr blk, Cycle cycle, bool isWrite)
{
    const unsigned channel = channelOf(blk);
    const unsigned bankIdx =
        channel * geometry_.banksPerChannel + bankOf(blk);
    Bank &bank = banks_[bankIdx];
    const std::uint64_t row = rowOf(blk);
    const unsigned mult = timing_.coreClockMultiplier;

    // The command can start once the bank finished its previous
    // operation and the request has arrived.
    Cycle start = std::max(cycle, bank.readyCycle);

    unsigned accessMem; // memory-clock cycles until data
    if (bank.rowOpen && bank.openRow == row) {
        ++stats_[kStats["row_hits"]];
        accessMem = timing_.tCl;
    } else if (!bank.rowOpen) {
        ++stats_[kStats["row_closed"]];
        accessMem = timing_.tRcd + timing_.tCl;
        bank.activateCycle = start;
    } else {
        ++stats_[kStats["row_conflicts"]];
        // Precharge may not cut the open row's tRAS short.
        const Cycle rasDone = bank.activateCycle +
            static_cast<Cycle>(timing_.tRas) * mult;
        start = std::max(start, rasDone);
        accessMem = timing_.tRp + timing_.tRcd + timing_.tCl;
        bank.activateCycle =
            start + static_cast<Cycle>(timing_.tRp) * mult;
    }
    bank.rowOpen = true;
    bank.openRow = row;

    Cycle dataStart = start + static_cast<Cycle>(accessMem) * mult;
    // Serialize bursts on the channel's data bus.
    dataStart = std::max(dataStart, busReady_[channel]);
    const Cycle dataDone =
        dataStart + static_cast<Cycle>(timing_.tBurst) * mult;

    busReady_[channel] = dataDone;
    bank.readyCycle = dataDone;

    ++stats_[isWrite ? kStats["writes"] : kStats["reads"]];
    stats_[kStats["busy_cycles"]] += static_cast<Cycle>(timing_.tBurst) * mult;
    return dataDone;
}

Cycle
Dram::read(Addr blk, Cycle cycle)
{
    return service(blk, cycle, false);
}

void
Dram::write(Addr blk, Cycle cycle)
{
    service(blk, cycle, true);
}

void
Dram::prefetchRead(Addr blk, Cycle)
{
    const unsigned channel = channelOf(blk);
    const unsigned bankIdx =
        channel * geometry_.banksPerChannel + bankOf(blk);
    Bank &bank = banks_[bankIdx];
    const std::uint64_t row = rowOf(blk);

    if (bank.rowOpen && bank.openRow == row) {
        ++stats_[kStats["row_hits"]];
    } else {
        ++stats_[bank.rowOpen ? kStats["row_conflicts"]
                              : kStats["row_closed"]];
        bank.rowOpen = true;
        bank.openRow = row;
    }
    ++stats_[kStats["reads"]];
    ++stats_[kStats["prefetch_reads"]];
}

} // namespace bvc
