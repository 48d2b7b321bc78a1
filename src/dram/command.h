/**
 * @file
 * DRAM and PIM command vocabulary (paper §5.2, Table 1).
 *
 * The regular DRAM commands are the usual ACT/PRE/RD/WR/REF set. The
 * baseline Newton-style PIM interface adds PIM_GWRITE, PIM_ACTIVATE
 * (grouped 4-bank activation), PIM_DOTPRODUCT and PIM_RDRESULT.
 * NeuPIMs augments it with PIM_HEADER (dimensionality announcement so
 * the controller can schedule around refresh), the composite PIM_GEMV
 * (k dot-products + result readout in a single C/A transaction), and
 * PIM_PRECHARGE (precharge of the dedicated PIM row buffer).
 */

#ifndef NEUPIMS_DRAM_COMMAND_H_
#define NEUPIMS_DRAM_COMMAND_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace neupims::dram {

enum class CommandType : std::uint8_t
{
    Act,
    Pre,
    Rd,
    Wr,
    Ref,
    PimGwrite,
    PimActivate,
    PimDotProduct,
    PimRdResult,
    PimHeader,
    PimGemv,
    PimPrecharge,
    NumTypes,
};

constexpr int kNumCommandTypes = static_cast<int>(CommandType::NumTypes);

constexpr bool
isPimCommand(CommandType t)
{
    return t >= CommandType::PimGwrite && t <= CommandType::PimPrecharge;
}

constexpr std::string_view
commandName(CommandType t)
{
    switch (t) {
      case CommandType::Act: return "ACT";
      case CommandType::Pre: return "PRE";
      case CommandType::Rd: return "RD";
      case CommandType::Wr: return "WR";
      case CommandType::Ref: return "REF";
      case CommandType::PimGwrite: return "PIM_GWRITE";
      case CommandType::PimActivate: return "PIM_ACTIVATE";
      case CommandType::PimDotProduct: return "PIM_DOTPRODUCT";
      case CommandType::PimRdResult: return "PIM_RDRESULT";
      case CommandType::PimHeader: return "PIM_HEADER";
      case CommandType::PimGemv: return "PIM_GEMV";
      case CommandType::PimPrecharge: return "PIM_PRECHARGE";
      default: return "?";
    }
}

/** Per-command issue counters, used for Fig. 9 and the power model. */
struct CommandCounts
{
    std::uint64_t counts[kNumCommandTypes] = {};

    void
    record(CommandType t, std::uint64_t n = 1)
    {
        counts[static_cast<int>(t)] += n;
    }

    std::uint64_t
    count(CommandType t) const
    {
        return counts[static_cast<int>(t)];
    }

    std::uint64_t
    totalPim() const
    {
        std::uint64_t n = 0;
        for (int i = 0; i < kNumCommandTypes; ++i) {
            if (isPimCommand(static_cast<CommandType>(i)))
                n += counts[i];
        }
        return n;
    }

    std::uint64_t
    totalMem() const
    {
        std::uint64_t n = 0;
        for (int i = 0; i < kNumCommandTypes; ++i) {
            if (!isPimCommand(static_cast<CommandType>(i)))
                n += counts[i];
        }
        return n;
    }
};

/**
 * One issued command, as a channel's command sink logs it (a test
 * hook, Channel::setCommandSink): each burst of a train and each
 * command of a period an epoch advances in closed form gets its own.
 */
struct CommandRecord
{
    Cycle cycle = 0;
    CommandType type = CommandType::Act;
    BankId bank = -1; ///< the (first) bank; -1 for a channel-wide command
    int row = -1;     ///< the row it opens, reads, writes or closes

    bool
    operator==(const CommandRecord &o) const
    {
        return cycle == o.cycle && type == o.type && bank == o.bank &&
               row == o.row;
    }
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_COMMAND_H_
