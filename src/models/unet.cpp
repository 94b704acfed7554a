#include "models/unet.hpp"

#include "common/error.hpp"
#include "nn/ops.hpp"
#include "obs/trace.hpp"

namespace irf::models {

using nn::Tensor;

UNet::UNet(UNetConfig config, Rng& rng) : config_(std::move(config)) {
  const int b = config_.base_channels;
  if (b <= 0) throw ConfigError("UNet base_channels must be positive");
  if (config_.inception_encoder && (b % 2 != 0)) {
    throw ConfigError("UNet with inception encoder needs base_channels divisible by 2");
  }
  if (config_.in_channels <= 0) throw ConfigError("UNet in_channels must be positive");

  // Channel widths per depth: b, 2b, 4b, 8b.
  const int widths[4] = {b, 2 * b, 4 * b, 8 * b};

  stem_ = std::make_unique<DoubleConv>(config_.in_channels, widths[0], rng);
  register_child(stem_.get());
  static constexpr InceptionKind kKinds[3] = {InceptionKind::kA, InceptionKind::kB,
                                              InceptionKind::kC};
  for (int i = 0; i < 3; ++i) {
    const int cin = widths[i];
    const int cout = widths[i + 1];
    if (config_.inception_encoder) {
      enc_inception_[i] = std::make_unique<Inception>(kKinds[i], cin, cout, rng);
      register_child(enc_inception_[i].get());
    } else {
      enc_plain_[i] = std::make_unique<DoubleConv>(cin, cout, rng);
      register_child(enc_plain_[i].get());
    }
  }

  for (int i = 0; i < 3; ++i) {
    // Decoder stage i fuses depth (i+1) output upsampled with the depth-i skip.
    const int up_in = widths[i + 1];
    const int skip = widths[i];
    up_proj_[i] = std::make_unique<nn::ConvBnRelu>(up_in, skip, 3, rng);
    register_child(up_proj_[i].get());
    dec_[i] = std::make_unique<DoubleConv>(2 * skip, skip, rng);
    register_child(dec_[i].get());
    if (config_.attention_gates) {
      gates_[i] = std::make_unique<AttentionGate>(skip, skip, std::max(1, skip / 2), rng);
      register_child(gates_[i].get());
    }
    if (config_.cbam_decoder) {
      cbams_[i] = std::make_unique<Cbam>(skip, rng);
      register_child(cbams_[i].get());
    }
  }
  head_ = std::make_unique<nn::Conv2d>(widths[0], 1, 1, rng);
  register_child(head_.get());
  // Zero-init the regression head: the model starts by predicting zero,
  // which under the pipeline's residual refinement means "start exactly at
  // the rough numerical solution" and learn corrections from there.
  for (nn::Tensor p : head_->parameters()) {
    std::fill(p.data().begin(), p.data().end(), 0.0f);
  }
}

Tensor UNet::forward(const Tensor& x) {
  const nn::Shape& s = x.shape();
  if (s.c != config_.in_channels) {
    throw DimensionError("UNet '" + config_.name + "' expects " +
                         std::to_string(config_.in_channels) + " channels, got " +
                         std::to_string(s.c));
  }
  if (s.h % 8 != 0 || s.w % 8 != 0) {
    throw DimensionError("UNet input height/width must be divisible by 8, got " +
                         s.str());
  }

  // One span per block, so a trace splits the forward by block. Stage spans
  // carry the depth of their output (0 = full resolution, 3 = deepest).

  // Encoder.
  Tensor skips[3];
  Tensor t;
  {
    obs::ScopedSpan span("model_stem", "models");
    t = stem_->forward(x);
  }
  for (int i = 0; i < 3; ++i) {
    obs::ScopedSpan span("model_encoder", "models");
    span.add_arg("depth", i + 1);
    skips[i] = t;
    t = nn::maxpool2d(t, 2);
    t = config_.inception_encoder ? enc_inception_[i]->forward(t)
                                  : enc_plain_[i]->forward(t);
  }

  // Decoder (deepest stage first).
  for (int i = 2; i >= 0; --i) {
    {
      obs::ScopedSpan span("model_up_proj", "models");
      span.add_arg("depth", i);
      t = up_proj_[i]->forward(nn::upsample_nearest2x(t));
    }
    Tensor skip = skips[i];
    if (gates_[i]) {
      obs::ScopedSpan span("model_gate", "models");
      span.add_arg("depth", i);
      skip = gates_[i]->forward(t, skip);
    }
    {
      obs::ScopedSpan span("model_decoder", "models");
      span.add_arg("depth", i);
      t = dec_[i]->forward(nn::concat_channels({t, skip}));
    }
    if (cbams_[i]) {
      obs::ScopedSpan span("model_cbam", "models");
      span.add_arg("depth", i);
      t = cbams_[i]->forward(t);
    }
  }
  obs::ScopedSpan span("model_head", "models");
  return head_->forward(t);  // regression-like layer: linear 1x1
}

namespace {
std::unique_ptr<IrModel> make_unet(UNetConfig config, Rng& rng) {
  return std::make_unique<UNet>(std::move(config), rng);
}
}  // namespace

std::unique_ptr<IrModel> make_iredge(int in_channels, int base_channels, Rng& rng) {
  UNetConfig c;
  c.name = "IREDGe";
  c.in_channels = in_channels;
  c.base_channels = base_channels;
  return make_unet(c, rng);
}

std::unique_ptr<IrModel> make_mavirec(int in_channels, int base_channels, Rng& rng) {
  // MAVIREC's 3-D U-Net collapses to a (wider-input) 2-D U-Net for static
  // analysis: the time axis is singleton, leaving its richer feature volume.
  UNetConfig c;
  c.name = "MAVIREC";
  c.in_channels = in_channels;
  c.base_channels = base_channels;
  return make_unet(c, rng);
}

std::unique_ptr<IrModel> make_pgau(int in_channels, int base_channels, Rng& rng) {
  UNetConfig c;
  c.name = "PGAU";
  c.in_channels = in_channels;
  c.base_channels = base_channels;
  c.attention_gates = true;
  return make_unet(c, rng);
}

std::unique_ptr<IrModel> make_maunet(int in_channels, int base_channels, Rng& rng) {
  UNetConfig c;
  c.name = "MAUnet";
  c.in_channels = in_channels;
  c.base_channels = base_channels;
  c.inception_encoder = true;  // multiscale convolutions
  c.attention_gates = true;
  return make_unet(c, rng);
}

std::unique_ptr<IrModel> make_contest_winner(int in_channels, int base_channels,
                                             Rng& rng) {
  UNetConfig c;
  c.name = "ContestWinner";
  c.in_channels = in_channels;
  c.base_channels = 2 * base_channels;  // brute-force capacity
  return make_unet(c, rng);
}

std::unique_ptr<IrModel> make_ir_fusion_net(int in_channels, int base_channels, Rng& rng,
                                            bool use_inception, bool use_cbam) {
  UNetConfig c;
  c.name = "IR-Fusion";
  c.in_channels = in_channels;
  c.base_channels = base_channels;
  c.inception_encoder = use_inception;
  c.attention_gates = true;
  c.cbam_decoder = use_cbam;
  return make_unet(c, rng);
}

}  // namespace irf::models
