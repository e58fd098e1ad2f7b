//! The end-to-end registration flow (Figure 9).

use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

use crate::auth::{exchange, fetch_hello};
use crate::channel::Channel;
use crate::device::{DeviceError, MobileDevice};
use crate::messages::{RegistrationAck, Reject};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::server::WebServer;
use crate::trace::{CtxArgs, Outcome, SpanKind};

/// Why an end-to-end flow failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowError {
    /// The device refused to proceed.
    Device(DeviceError),
    /// The server rejected the message.
    Server(Reject),
    /// The network dropped a required message.
    NetworkDropped,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Device(e) => write!(f, "device: {e}"),
            FlowError::Server(e) => write!(f, "server: {e}"),
            FlowError::NetworkDropped => f.write_str("network dropped the message"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<DeviceError> for FlowError {
    fn from(e: DeviceError) -> Self {
        FlowError::Device(e)
    }
}

impl From<Reject> for FlowError {
    fn from(e: Reject) -> Self {
        FlowError::Server(e)
    }
}

/// What happened during a registration run.
#[derive(Clone, Debug, Default)]
pub struct RegistrationReport {
    /// End-to-end latency (network + device work), including retry
    /// timeouts and backoff.
    pub latency: SimDuration,
    /// Network/retry accounting for the whole flow.
    pub metrics: ProtocolMetrics,
}

/// Runs the full Fig. 9 flow under the retry policy: hello → device
/// submission → server binding → ack. A lost submission or ack is
/// retransmitted; the server re-acks an already-bound retransmit from its
/// idempotency cache instead of failing on `AccountExists`.
///
/// Accounting accumulates into the caller's `metrics` and `latency`, so
/// a failed attempt's sends and timeouts are not lost with the error.
///
/// # Errors
///
/// Propagates device refusals, conclusive server rejections, or exhausted
/// retries ([`FlowError::NetworkDropped`]).
#[allow(clippy::too_many_arguments)]
pub fn register(
    device: &mut MobileDevice,
    owner_user: u64,
    server: &mut WebServer,
    channel: &mut Channel,
    account: &str,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
) -> Result<(), FlowError> {
    let tracer = channel.tracer().clone();
    tracer.open(SpanKind::Register, CtxArgs::account(account));
    let result = register_inner(
        device, owner_user, server, channel, account, policy, rng, metrics, latency,
    );
    tracer.close(
        SpanKind::Register,
        match &result {
            Ok(_) => Outcome::Success,
            Err(FlowError::Server(r)) => Outcome::Rejected(*r),
            Err(FlowError::NetworkDropped) => Outcome::GaveUp,
            Err(FlowError::Device(_)) => Outcome::DeviceRefused,
        },
    );
    result
}

#[allow(clippy::too_many_arguments)]
fn register_inner(
    device: &mut MobileDevice,
    owner_user: u64,
    server: &mut WebServer,
    channel: &mut Channel,
    account: &str,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    metrics: &mut ProtocolMetrics,
    latency: &mut SimDuration,
) -> Result<(), FlowError> {
    // Step 1: request + serve the registration page.
    let hello = fetch_hello(
        device,
        server,
        channel,
        policy,
        metrics,
        latency,
        "/register",
    )
    .map_err(FlowError::from)?;

    // Steps 2–4: device-side validation, display, touch, key generation.
    let submit = device.begin_registration_checked(&hello, account, owner_user, rng)?;

    // Step 5: server verification and binding, acked back to the device.
    let expected_nonce = submit.nonce;
    let expected_account = submit.account.clone();
    exchange(
        channel,
        policy,
        metrics,
        latency,
        Phase::Submit,
        &submit,
        |m| server.handle_registration(m),
        |ack: &RegistrationAck| ack.nonce == expected_nonce && ack.account == expected_account,
    )
    .map_err(FlowError::from)?;

    Ok(())
}
