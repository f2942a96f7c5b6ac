"""Synthetic ICU cohorts and a from-scratch bidirectional LSTM pipeline
for predicting positive blood cultures from irregular clinical time series."""

__version__ = "0.1.0"
