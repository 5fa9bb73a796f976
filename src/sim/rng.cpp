#include "sim/rng.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "util/error.hpp"

namespace ecgrid::sim {

RngStream::RngStream(std::uint64_t seed)
    : slot_(new Slot{std::mt19937_64(seed), nullptr, nullptr}) {}

RngStream::RngStream(const RngStream& other)
    : slot_(new Slot{other.slot_->engine, nullptr, nullptr}) {}

RngStream& RngStream::operator=(const RngStream& other) {
  if (this != &other) *this = RngStream(other);
  return *this;
}

RngStream& RngStream::operator=(RngStream&& other) noexcept {
  if (this != &other) {
    release();
    slot_ = other.slot_;
    other.slot_ = nullptr;
  }
  return *this;
}

void RngStream::release() noexcept {
  if (slot_ == nullptr) return;
  if (slot_->pool != nullptr) {
    slot_->pool->recycle(slot_);
  } else {
    delete slot_;
  }
  slot_ = nullptr;
}

double RngStream::uniform(double lo, double hi) {
  ECGRID_REQUIRE(lo <= hi, "uniform bounds inverted");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(slot_->engine);
}

std::int64_t RngStream::uniformInt(std::int64_t lo, std::int64_t hi) {
  ECGRID_REQUIRE(lo <= hi, "uniformInt bounds inverted");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(slot_->engine);
}

double RngStream::exponential(double mean) {
  ECGRID_REQUIRE(mean > 0.0, "exponential mean must be positive");
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(slot_->engine);
}

double RngStream::gaussian(double mean, double stddev) {
  ECGRID_REQUIRE(stddev >= 0.0, "gaussian stddev cannot be negative");
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> dist(mean, stddev);
  return dist(slot_->engine);
}

bool RngStream::chance(double probability) {
  ECGRID_REQUIRE(probability >= 0.0 && probability <= 1.0,
                 "probability out of range");
  std::bernoulli_distribution dist(probability);
  return dist(slot_->engine);
}

namespace {

// FNV-1a, enough to decorrelate stream names; the result is further mixed
// through splitmix64 with the master seed.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

RngFactory::~RngFactory() {
  if (live_ == 0) return;
  // A surviving stream would draw from freed memory; fail loudly instead.
  std::fprintf(stderr,
               "ecgrid: %zu RngStream(s) outlived their RngFactory (master "
               "seed %llu): destroy every holder of a factory stream "
               "before its Simulator\n",
               live_, static_cast<unsigned long long>(masterSeed_));
  std::abort();
}

RngStream RngFactory::stream(const std::string& name) {
  return RngStream(acquire(splitmix64(masterSeed_ ^ splitmix64(fnv1a(name)))));
}

RngStream RngFactory::stream(const std::string& component, int index) {
  return stream(component + "/" + std::to_string(index));
}

RngFactory::Slot* RngFactory::acquire(std::uint64_t seed) {
  // The pool never runs a slot's destructor: a freed slot is constructed
  // over when reused, and the factory frees whole blocks.
  static_assert(std::is_trivially_destructible_v<Slot>);
  void* room = freeList_;
  if (room != nullptr) {
    freeList_ = freeList_->nextFree;
  } else {
    if (usedInLastBlock_ == kSlotsPerBlock) {
      // Streams are made at setup, one per component; a stream made in
      // steady state (a crashed host's reboot) reuses a freed slot first.
      // A new block is high-water growth, never per-event churn.
      ECGRID_ALLOC_EXEMPT();
      blocks_.push_back(std::make_unique_for_overwrite<SlotStorage[]>(
          kSlotsPerBlock));
      usedInLastBlock_ = 0;
    }
    room = &blocks_.back()[usedInLastBlock_++];
  }
  ++live_;
  return ::new (room) Slot{std::mt19937_64(seed), this, nullptr};
}

void RngFactory::recycle(Slot* slot) noexcept {
  slot->nextFree = freeList_;
  freeList_ = slot;
  --live_;
}

}  // namespace ecgrid::sim
