pub mod report;
