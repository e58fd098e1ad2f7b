//! Identity reset after device loss (paper §IV, "Identity Reset").
//!
//! "When a user loses her mobile device, all her identity information
//! stored in the old mobile device is lost. … The user can rely on her old
//! passwords in order to login on her web services accounts using her new
//! mobile device. … The identity reset service enables the server to
//! remove the user's previous public key binding to the account. The user
//! can then bind her new mobile device … in a manner similar to the
//! registration process."
//!
//! The reset runs as a wire exchange like every other flow: the new device
//! fetches the `/reset` page, submits a [`ResetRequest`] carrying the
//! fallback password under the hello nonce, and retries under the
//! [`RetryPolicy`] until the server's [`ResetAck`] arrives. The server
//! journals the unbinding and answers retransmits from its idempotency
//! cache, so a reset is applied exactly once no matter what the network
//! does to it.

use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

use crate::auth::{exchange, fetch_hello};
use crate::channel::Channel;
use crate::device::MobileDevice;
use crate::messages::{ResetAck, ResetRequest};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::registration::{register, FlowError, RegistrationReport};
use crate::server::WebServer;

/// What happened during a reset-and-rebind run.
#[derive(Clone, Debug)]
pub struct ResetReport {
    /// Latency of the reset exchange itself (hello + request), including
    /// retry timeouts and backoff.
    pub latency: SimDuration,
    /// Network/retry accounting for the reset exchange.
    pub metrics: ProtocolMetrics,
    /// The re-registration that bound the new device.
    pub rebind: RegistrationReport,
}

/// Resets `account`'s key binding with the fallback password over the wire
/// and re-binds it to `new_device`, all under the retry policy.
///
/// # Errors
///
/// Fails if the credential is wrong, the network defeats every retry, or
/// the re-registration flow fails.
#[allow(clippy::too_many_arguments)]
pub fn reset_and_rebind(
    server: &mut WebServer,
    channel: &mut Channel,
    account: &str,
    password: &str,
    new_device: &mut MobileDevice,
    owner_user: u64,
    policy: &RetryPolicy,
    rng: &mut SimRng,
) -> Result<ResetReport, FlowError> {
    let mut metrics = ProtocolMetrics::default();
    let mut latency = SimDuration::ZERO;

    // The new device fetches the reset page like any other public page;
    // the hello nonce keys the server's exactly-once cache for the reset.
    let hello = fetch_hello(
        new_device,
        server,
        channel,
        policy,
        &mut metrics,
        &mut latency,
        "/reset",
    )
    .map_err(FlowError::from)?;

    let request = ResetRequest {
        domain: hello.domain.clone(),
        account: account.to_owned(),
        password: password.to_owned(),
        nonce: hello.nonce,
    };
    let expected_nonce = request.nonce;
    exchange(
        channel,
        policy,
        &mut metrics,
        &mut latency,
        Phase::Lifecycle,
        &request,
        |m| server.handle_reset(m),
        |ack: &ResetAck| ack.account == account && ack.nonce == expected_nonce,
    )
    .map_err(FlowError::from)?;

    let mut rebind = RegistrationReport::default();
    register(
        new_device,
        owner_user,
        server,
        channel,
        account,
        policy,
        rng,
        &mut rebind.metrics,
        &mut rebind.latency,
    )?;
    Ok(ResetReport {
        latency,
        metrics,
        rebind,
    })
}
