#include "util/obs/trace.h"

#include <span>

#include "util/obs/clock.h"
#include "util/obs/flight.h"
#include "util/obs/trace_context.h"

namespace fab::obs {

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (!FlightEnabled()) return;
  active_ = true;
  trace_id_ = CurrentTraceId();
  start_ = Clock::Now();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  FlightRecordSpan(name_, trace_id_, start_, Clock::Now(),
                   std::span<const TraceArg>(args_, num_args_));
}

void TraceSpan::AddArg(const TraceArg& arg) {
  if (!active_ || num_args_ == kMaxTraceArgs) return;
  args_[num_args_++] = arg;
}

}  // namespace fab::obs
