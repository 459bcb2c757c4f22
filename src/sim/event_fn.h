// EventFn: the simulator's move-only callback type — see MoveFn for the
// machinery and the rationale. The inline buffer is sized so a DMA write
// completion stays inline: this, its span, the transfer's physical runs (40
// bytes, the first run inline), its byte vector and the nested 176-byte
// DmaCallback fill exactly 256 bytes, which Fabric::StartWrite checks with a
// static_assert. Event nodes are pooled, so the wide buffer costs arena bytes,
// not per-event allocations.
#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include "src/sim/move_fn.h"

namespace lastcpu::sim {

using EventFn = MoveFn<void(), 256>;

}  // namespace lastcpu::sim

#endif  // SRC_SIM_EVENT_FN_H_
