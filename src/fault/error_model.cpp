#include "fault/error_model.hpp"

#include "util/error.hpp"

namespace ecgrid::fault {

namespace {
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// SplitMix64's output function: a bijective avalanche of all 64 bits.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A hash of one delivery: (seed, transmission, sender, receiver).
std::uint64_t deliveryKey(std::uint64_t seed, std::uint64_t transmission,
                          net::NodeId sender, net::NodeId receiver) {
  return mix(mix(seed + transmission * kGolden) ^
             (std::uint64_t{static_cast<std::uint32_t>(sender)} << 32 |
              static_cast<std::uint32_t>(receiver)));
}

/// Draw `k` (from 1) of the SplitMix64 sequence from `key`: its top 53
/// bits, uniform in [0, 1). A delivery replays its draws whenever asked.
double uniform(std::uint64_t key, std::uint64_t k) {
  return static_cast<double>(mix(key + k * kGolden) >> 11) * 0x1.0p-53;
}
}  // namespace

const char* toString(ChannelErrorKind kind) {
  switch (kind) {
    case ChannelErrorKind::kNone:
      return "none";
    case ChannelErrorKind::kIid:
      return "iid";
    case ChannelErrorKind::kGilbertElliott:
      return "gilbert-elliott";
  }
  return "?";
}

double gilbertElliottPGoodToBad(double targetLoss, double pBadToGood) {
  ECGRID_REQUIRE(targetLoss >= 0.0 && targetLoss < 1.0,
                 "target loss must be in [0, 1)");
  ECGRID_REQUIRE(pBadToGood > 0.0 && pBadToGood <= 1.0,
                 "pBadToGood must be in (0, 1]");
  // πB = pGB/(pGB+pBG) = targetLoss  ⇒  pGB = pBG·L/(1−L).
  return pBadToGood * targetLoss / (1.0 - targetLoss);
}

IidLossModel::IidLossModel(double lossProbability, std::uint64_t seed)
    : lossProbability_(lossProbability), seed_(seed) {
  ECGRID_REQUIRE(lossProbability >= 0.0 && lossProbability <= 1.0,
                 "loss probability out of range");
}

bool IidLossModel::dropDelivery(std::uint64_t transmission,
                                net::NodeId sender, net::NodeId receiver) {
  return uniform(deliveryKey(seed_, transmission, sender, receiver), 1) <
         lossProbability_;
}

GilbertElliottModel::GilbertElliottModel(const ChannelFault& params,
                                         std::uint64_t seed)
    : params_(params), seed_(seed) {
  ECGRID_REQUIRE(params.pGoodToBad >= 0.0 && params.pGoodToBad <= 1.0,
                 "pGoodToBad out of range");
  ECGRID_REQUIRE(params.pBadToGood > 0.0 && params.pBadToGood <= 1.0,
                 "pBadToGood must be in (0, 1]");
  ECGRID_REQUIRE(params.lossGood >= 0.0 && params.lossGood <= 1.0,
                 "lossGood out of range");
  ECGRID_REQUIRE(params.lossBad >= 0.0 && params.lossBad <= 1.0,
                 "lossBad out of range");
}

bool GilbertElliottModel::dropDelivery(std::uint64_t transmission,
                                       net::NodeId sender,
                                       net::NodeId receiver) {
  bool& bad = inBadState_[receiver];  // chains start Good
  const std::uint64_t key = deliveryKey(seed_, transmission, sender, receiver);
  bool drop = uniform(key, 1) < (bad ? params_.lossBad : params_.lossGood);
  const double next = uniform(key, 2);
  bad = bad ? next >= params_.pBadToGood : next < params_.pGoodToBad;
  return drop;
}

double GilbertElliottModel::stationaryLoss() const {
  double denom = params_.pGoodToBad + params_.pBadToGood;
  if (denom <= 0.0) return params_.lossGood;  // chain never leaves Good
  double piBad = params_.pGoodToBad / denom;
  return piBad * params_.lossBad + (1.0 - piBad) * params_.lossGood;
}

}  // namespace ecgrid::fault
