#include "storage/scrubber.h"

namespace tvmec::storage {

bool Scrubber::scrub_next(ScrubStats& increment) {
  // Resume at the first stripe at or after the cursor key: a vanished
  // object's successor starts at its stripe 0, a shrunk one is skipped.
  StripeEngine::Stripe* st =
      engine_->stripe_at_or_after(cursor_name_, cursor_stripe_);
  if (st == nullptr) return false;
  cursor_name_ = st->name;
  cursor_stripe_ = st->index + 1;
  const StripeScrubResult r = engine_->scrub_stripe(*st);
  increment.add(r, engine_->unit_size());
  current_.add(r, engine_->unit_size());
  return true;
}

void Scrubber::finish_pass() {
  last_ = current_;
  ++passes_;
  reset_cursor();
}

void Scrubber::reset_cursor() {
  cursor_name_.clear();
  cursor_stripe_ = 0;
  current_ = ScrubStats{};
}

ScrubStats Scrubber::step(std::size_t max_stripes) {
  ScrubStats increment;
  for (std::size_t i = 0; i < max_stripes; ++i) {
    if (!scrub_next(increment)) {
      finish_pass();
      break;
    }
  }
  return increment;
}

ScrubStats Scrubber::run() {
  ScrubStats increment;
  while (scrub_next(increment)) {
  }
  finish_pass();
  return increment;
}

}  // namespace tvmec::storage
